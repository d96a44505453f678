package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
BenchmarkEngineInteractions/seq/n=100000-8      20000000        155.2 ns/op
BenchmarkEngineInteractions/batch/n=100000-8    20000000        137.0 ns/op
BenchmarkEngineInteractions/batch/n=1000000-8   20000000        118 ns/op
BenchmarkEngineInteractions/dense/n=100000000-8   20000000   14.2 ns/op
BenchmarkFig2Convergence-8   12   90000000 ns/op   1371 paralleltime
PASS
`
	entries, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("parsed %d entries, want 5", len(entries))
	}
	e := entries[2]
	if e.Backend != "batch" || e.N != 1000000 || e.NsPerOp != 118 || e.Iters != 20000000 {
		t.Errorf("entry = %+v, want batch/n=1000000 118 ns/op", e)
	}
	if p := entries[3]; p.Backend != "dense" || p.N != 100000000 || p.NsPerOp != 14.2 {
		t.Errorf("entry = %+v, want dense/n=100000000 14.2 ns/op", p)
	}
	if last := entries[4]; last.Backend != "" || last.N != 0 {
		t.Errorf("non-grid benchmark should have empty backend/n, got %+v", last)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	entries, err := parse(strings.NewReader("no benchmarks here\n"))
	if err != nil || len(entries) != 0 {
		t.Errorf("parse = %v, %v; want empty, nil", entries, err)
	}
}

// grid builds a gated entry the way CI artifacts contain them, with a
// -procs suffix that must not affect the gate key.
func grid(backend string, n int, ns float64, procs string) Entry {
	return Entry{
		Benchmark: fmt.Sprintf("BenchmarkEngineInteractions/%s/n=%d%s", backend, n, procs),
		Backend:   backend,
		N:         n,
		Iters:     1000,
		NsPerOp:   ns,
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	baseline := []Entry{grid("seq", 100000, 100, "-8"), grid("batch", 100000, 80, "-8")}
	fresh := []Entry{grid("seq", 100000, 125, "-4"), grid("batch", 100000, 70, "-4")}
	report, regressions, err := compareEntries(baseline, fresh, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("%d regressions within tolerance:\n%s", regressions, strings.Join(report, "\n"))
	}
	if len(report) != 2 {
		t.Errorf("report has %d lines, want 2:\n%s", len(report), strings.Join(report, "\n"))
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	baseline := []Entry{grid("seq", 100000, 100, "-8"), grid("dense", 1000000, 10, "-8")}
	fresh := []Entry{grid("seq", 100000, 101, "-8"), grid("dense", 1000000, 13.1, "-8")}
	report, regressions, err := compareEntries(baseline, fresh, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (the 31%% dense slowdown):\n%s",
			regressions, strings.Join(report, "\n"))
	}
	found := false
	for _, line := range report {
		if strings.Contains(line, "dense/n=1000000") && strings.Contains(line, "REGRESSION") {
			found = true
		}
	}
	if !found {
		t.Errorf("no REGRESSION line for the dense row:\n%s", strings.Join(report, "\n"))
	}
}

// TestCompareNewFreshRow: a row present only in the fresh artifact (a
// newly added benchmark size) is reported but does not fail the gate.
func TestCompareNewFreshRow(t *testing.T) {
	baseline := []Entry{grid("seq", 100000, 100, "-8")}
	fresh := []Entry{grid("seq", 100000, 100, "-8"), grid("dense", 1000000000, 2, "-8")}
	report, regressions, err := compareEntries(baseline, fresh, 0.30)
	if err != nil || regressions != 0 {
		t.Fatalf("err=%v regressions=%d, want clean pass", err, regressions)
	}
	found := false
	for _, line := range report {
		if strings.Contains(line, "dense/n=1000000000") && strings.Contains(line, "new row") {
			found = true
		}
	}
	if !found {
		t.Errorf("new fresh row not reported:\n%s", strings.Join(report, "\n"))
	}
}

// TestCompareMissingFreshRow: a baseline row absent from the fresh
// artifact means the gate lost coverage — that is an error, not a pass.
func TestCompareMissingFreshRow(t *testing.T) {
	baseline := []Entry{grid("seq", 100000, 100, "-8"), grid("batch", 100000, 80, "-8")}
	fresh := []Entry{grid("seq", 100000, 100, "-8")}
	_, _, err := compareEntries(baseline, fresh, 0.30)
	if err == nil || !strings.Contains(err.Error(), "batch/n=100000") {
		t.Errorf("err = %v, want missing-row error naming batch/n=100000", err)
	}
}

// TestCompareEmptyBaseline: a baseline with no gated rows cannot vouch
// for anything and must error rather than silently pass.
func TestCompareEmptyBaseline(t *testing.T) {
	baseline := []Entry{{Benchmark: "BenchmarkFig2Convergence-8", Iters: 12, NsPerOp: 9e7}}
	fresh := []Entry{grid("seq", 100000, 100, "-8")}
	_, _, err := compareEntries(baseline, fresh, 0.30)
	if err == nil {
		t.Error("empty baseline accepted")
	}
}

func TestReadEntriesFileMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"not": "a list"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readEntriesFile(path); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("err = %v, want malformed-artifact error", err)
	}
	if _, err := readEntriesFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCompareNormalized: with -normalize, a uniformly slower machine is
// not a regression, while one row moving against the others still is.
func TestCompareNormalized(t *testing.T) {
	baseline := []Entry{
		grid("seq", 100000, 100, "-8"),
		grid("batch", 100000, 80, "-8"),
		grid("dense", 100000, 60, "-8"),
	}
	uniform := []Entry{
		grid("seq", 100000, 200, "-4"),
		grid("batch", 100000, 160, "-4"),
		grid("dense", 100000, 120, "-4"),
	}
	nb, nf := normalizeEntries(baseline, uniform)
	_, regressions, err := compareEntries(nb, nf, 0.30)
	if err != nil || regressions != 0 {
		t.Errorf("uniform 2× slowdown flagged under -normalize: err=%v regressions=%d", err, regressions)
	}
	skewed := []Entry{
		grid("seq", 100000, 200, "-4"),
		grid("batch", 100000, 160, "-4"),
		grid("dense", 100000, 240, "-4"), // dense alone 4× slower
	}
	nb, nf = normalizeEntries(baseline, skewed)
	report, regressions, err := compareEntries(nb, nf, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Errorf("relative dense regression not flagged: regressions=%d\n%s",
			regressions, strings.Join(report, "\n"))
	}
	for _, line := range report {
		if strings.Contains(line, "REGRESSION") && !strings.Contains(line, "dense") {
			t.Errorf("wrong row flagged: %s", line)
		}
	}
}
