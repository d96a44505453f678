package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans nest workload → trial or job →
// engine chunk → predicate; set-up, HTTP and per-record spans hang off the
// workload or the job. Rule invocations are not spans: each span carries
// the count and summed time of the calls made inside it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the workload span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Calls  int64   `json:"calls,omitempty"`
	CallS  float64 `json:"call_s,omitempty"`
}

// spanNames are the span names a trace may hold; each gets a
// trace.self_s.<name> per-layer metric. The workload span's own self time
// is the unattributed remainder.
var spanNames = []string{
	"trial", "job", "pop.construct", "protocol.compile", "pop.run",
	"predicate", "core.estimates", "jobs.http", "sweep.trial",
}

// ruleLayer names the aggregated rule calls in the self-time report.
const ruleLayer = "core.rule"

// tracer keeps spans in memory; they are written out once the run ends.
// It is safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	root   int
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.root = t.open(-1, "workload")
	return t
}

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.origin).Seconds() }

// add records a completed span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// open starts a span now; close ends it.
func (t *tracer) open(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now)
}

func (t *tracer) close(id int) {
	end := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// calls attaches aggregated rule calls to a span.
func (t *tracer) calls(id int, n int64, d time.Duration) {
	t.mu.Lock()
	t.spans[id].Calls += n
	t.spans[id].CallS += d.Seconds()
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns each layer's self time: a span's duration minus the
// part of it its children cover (their union, clipped to the span) and
// minus its aggregated rule time, summed per span name. Aggregated rule
// time is reported as its own layer. The workload span's self time is
// returned separately as the unattributed remainder.
func (t *tracer) selfTimes() (self map[string]float64, unattributed float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]float64)
	for _, s := range t.spans {
		v := s.End - s.Start - covered(s, children[s.ID]) - s.CallS
		self[ruleLayer] += s.CallS
		if s.ID == t.root {
			unattributed = v
			continue
		}
		self[s.Name] += v
	}
	return self, unattributed
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// perLayer assembles the traced run's per-layer metrics: the workload's
// own layer metrics, every layer's self time, the unattributed remainder
// and the tracing overhead (traced minus untraced wall time). Every listed
// metric is present; layers a workload does not exercise read 0.
func perLayer(p *pass, tr *tracer, overhead float64) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) {
		m, ok := out[name]
		if !ok {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not declared in layerMetrics", name))
		}
		m.Value = v
		out[name] = m
	}
	for name, v := range p.layers {
		set(name, v)
	}
	self, unattributed := tr.selfTimes()
	for name, v := range self {
		set("trace.self_s."+name, v)
	}
	set("trace.unattributed_s", unattributed)
	set("trace.overhead_s", overhead)
	tr.mu.Lock()
	set("trace.spans", float64(len(tr.spans)))
	tr.mu.Unlock()
	return out
}
