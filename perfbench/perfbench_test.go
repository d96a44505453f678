package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsTiny is the harness self-test: every workload at its tiny
// size, untraced and traced, must pass its output checks and the
// neutrality check and report exactly the metrics BENCHMARK.json
// declares.
func TestWorkloadsTiny(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 5, seconds: 1, tiny: true, dir: t.TempDir()}
			res, err := measure(w, cfg, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: undeclared metric %s", w.name, traced, name)
				case unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, declared %q", w.name, traced, name, m.Unit, unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkFileMatches checks BENCHMARK.json's workloads and per-layer
// list against the harness's.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		h := layerMetrics[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, h)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 10}
	kids := []span{{Start: 1, End: 3}, {Start: 2, End: 4}, {Start: 8, End: 12}}
	if got := covered(parent, kids); got != 5 {
		t.Errorf("covered = %v, want 5 (union [1,4] ∪ [8,10])", got)
	}
}
