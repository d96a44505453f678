// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, from a single process, and prints one JSON
// result object as the last line of standard output:
//
//	perfbench --workload estimate --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and what it isolates):
//
//	estimate      Log-Size-Estimation to convergence at n = 10⁴ through
//	              popsize.Estimator.Run (auto → batch), trial after trial
//	dense-1e6     the first 100 parallel-time units at n = 10⁶ on the
//	              dense backend, from a cold engine
//	majority-1e8  table-compiled approximate majority to consensus at
//	              n = 10⁸ through the protocol registry (auto → dense,
//	              one-worker splitter)
//	service-quick the -quick suite as two concurrent popsimd jobs on an
//	              in-process jobs.Manager + jobs.Server (httptest)
//
// --trace 0 reports the end-to-end metrics of an uninstrumented pass.
// --trace 1 runs the same units twice — uninstrumented, then with spans
// recorded from this package around calls into the program's public
// functions — fails unless both passes produce identical outputs, and
// reports the per-layer metrics. Nothing inside the program is
// instrumented. Every workload checks its outputs; a failed check makes
// "correct" false and counts in "failed".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input set. run executes a pass over the
// workload's units; tr is nil on the uninstrumented pass.
type workload struct {
	name string
	run  func(cfg config, tr *tracer) (*pass, error)
}

// config sizes one pass: the workload seed every input derives from, the
// requested measuring time, and whether to use the reduced sizes of the
// harness self-test.
type config struct {
	seed    uint64
	seconds float64
	tiny    bool
	// dir holds the service workload's state directories.
	dir string
}

// setupReps is how many times a pass repeats its set-up, each from a
// settled heap; setup_s is the median. Set-up steps take 0.1–3 ms, so one
// repetition would measure mostly timer and page-fault noise.
const setupReps = 21

// units sizes a pass from the requested seconds and the nominal cost of
// one unit on the reference machine (2-core container, go1.24), so the
// work done for a given (seed, seconds) is fixed — a faster program
// finishes the same work sooner instead of doing more of it.
func (c config) units(nominal float64) int {
	return max(1, int(c.seconds/nominal+0.5))
}

// pass is the outcome of one pass over a workload's units.
type pass struct {
	setup     []float64 // seconds per set-up repetition
	trials    []float64 // wall seconds per trial
	wall      float64   // wall seconds of the measured phase
	attempted int
	failed    int
	problems  []string
	// output is the pass's canonical output; the traced pass must
	// reproduce the untraced one byte for byte.
	output []byte
	// layers holds the per-layer metrics (traced pass only).
	layers map[string]float64
}

func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{"estimate", runEstimate},
	{"dense-1e6", runDense},
	{"majority-1e8", runMajority},
	{"service-quick", runService},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 15, "measuring time the pass is sized for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	spans := flag.String("spans", "", "directory the traced run writes its spans to (empty: none)")
	work := flag.String("workdir", ".", "directory for the service workload's temporary state")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, *spans, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed uint64, seconds float64, trace int, spansDir, workDir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive (got %v)", seconds)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "perfbench-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: seed, seconds: seconds, dir: dir}

	res, err := measure(w, cfg, trace == 1, spansDir)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// measure runs the untraced pass and, when traced, the traced pass over
// the same units, and assembles the result object.
func measure(w workload, cfg config, traced bool, spansDir string) (result, error) {
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- sampleRSS(stopRSS) }()
	base, err := w.run(cfg, nil)
	close(stopRSS)
	rss := <-rssDone
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	res := result{Attempted: base.attempted, Failed: base.failed}
	problems := base.problems
	if !traced {
		res.Metrics = endToEnd(base, rss)
		report(w.name, "end-to-end", base, res.Metrics)
	} else {
		tr := newTracer()
		tp, err := w.run(cfg, tr)
		tr.close(tr.root)
		if err != nil {
			return result{}, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		problems = append(problems, tp.problems...)
		// Instrumentation neutrality: one more attempted check.
		res.Attempted++
		if string(tp.output) != string(base.output) {
			res.Failed++
			problems = append(problems, "traced pass output differs from the untraced pass (instrumentation is not neutral)")
		}
		res.Metrics = perLayer(tp, tr, tp.wall-base.wall)
		report(w.name, "per-layer", tp, res.Metrics)
		if spansDir != "" {
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
			if err := tr.write(path); err != nil {
				return result{}, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd derives the user-facing metrics of an uninstrumented pass;
// rss holds the resident set sizes sampled during it.
func endToEnd(p *pass, rss []float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(p.setup), "s"},
		"wall_s":        {p.wall, "s"},
		"trials_per_s":  {float64(len(p.trials)) / p.wall, "1/s"},
		"trial_s_gmean": {gmean(p.trials), "s"},
		"rss_mb_p90":    {quantile(rss, 0.9), "MB"},
	}
}

// report prints a human-readable summary, with sample counts, to stderr;
// metrics of layers the workload does not exercise (0) are left out.
func report(name, kind string, p *pass, m map[string]metric) {
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d trials, %d set-up repetitions, %d/%d checks failed\n",
		name, kind, len(p.trials), len(p.setup), p.failed, p.attempted)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k].Value == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// settle collects the garbage of what ran before and returns the freed
// memory to the operating system, so every set-up repetition and every
// unit starts from the same heap whichever way its predecessors left it.
// Without it, a repetition's time depends on whether its allocations
// reuse freed memory or fault in fresh pages: the median of 21
// repetitions of the majority set-up varied by ±17% between processes,
// against ±7% with it.
func settle() { debug.FreeOSMemory() }

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// rssInterval is how often the uninstrumented pass samples the process's
// resident set size.
const rssInterval = 50 * time.Millisecond

// sampleRSS samples the resident set size (MB) until stop closes. The
// 90th percentile of the samples is the memory a run holds outside its
// briefest spikes: the peak (VmHWM) catches short allocation bursts whose
// height depends on garbage-collector timing, and reads 40–56 MB from run
// to run of the same service workload.
func sampleRSS(stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(rssInterval)
	defer t.Stop()
	for {
		if b, err := os.ReadFile("/proc/self/statm"); err == nil {
			f := strings.Fields(string(b))
			if len(f) > 1 {
				pages, _ := strconv.ParseInt(f[1], 10, 64)
				out = append(out, float64(pages*int64(os.Getpagesize()))/(1<<20))
			}
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

// gmean returns the geometric mean of xs (0 for none): the typical trial
// time. Unlike the median it does not jump between the clusters of a
// many-experiment suite's trial times (around the median of the -quick
// suite's 336 trials, neighbouring ranks differ by ~3%).
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
