// Command benchjson converts `go test -bench` output on stdin into a JSON
// perf-trajectory artifact: one entry per benchmark line, with the
// backend and population size parsed out of sub-benchmark names of the
// form Benchmark.../<backend>/n=<n>-<procs>. CI pipes
// BenchmarkEngineInteractions through it to emit BENCH_engine.json
// (ns/interaction per backend × n), so successive commits accumulate a
// machine-readable history of the engines' throughput.
//
// With -compare it instead acts as the CI perf-regression gate: it diffs
// a fresh artifact against a committed baseline and exits nonzero when
// any backend×n ns/interaction regressed beyond -tolerance (or when the
// baseline lost coverage). Rows present only in the fresh artifact are
// reported but do not fail the gate — commit a refreshed baseline to
// start gating them.
//
// Because the baseline and the fresh artifact generally come from
// different machines (CI runners are heterogeneous; absolute ns/op is
// only comparable within one invocation), -normalize divides every gated
// row by its artifact's geometric mean over the rows common to both
// artifacts before comparing. A uniformly faster or slower machine then
// cancels out exactly, and the gate fires only when one backend×n row
// moves relative to the others — which is precisely the regression class
// a backend×n grid exists to catch. The trade-off: a slowdown uniform
// across every row (e.g. in the shared protocol rule) is invisible to a
// normalized gate; run without -normalize on a pinned machine to gate
// absolute throughput.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkEngineInteractions -benchtime 2000000x . | benchjson -out BENCH_engine.json
//	benchjson -compare BENCH_baseline.json [-normalize] [-tolerance 0.30] BENCH_engine.json
//
// (Flags must precede the positional artifact — Go's flag parsing stops
// at the first non-flag argument.)
//
// To refresh the committed baseline after an intentional perf change (or
// a CI runner change), download BENCH_engine.json from the latest CI run
// of main — or regenerate it locally with the first command above — and
// commit it as BENCH_baseline.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement.
type Entry struct {
	Benchmark string  `json:"benchmark"`
	Backend   string  `json:"backend,omitempty"`
	N         int     `json:"n,omitempty"`
	Iters     int64   `json:"iters"`
	NsPerOp   float64 `json:"ns_per_op"`
}

// benchLine matches e.g.
// "BenchmarkEngineInteractions/seq/n=1000000-8  20000000  118.3 ns/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// subName extracts backend and n from a sub-benchmark path like
// "BenchmarkEngineInteractions/seq/n=1000000-8".
var subName = regexp.MustCompile(`^[^/]+/([^/]+)/n=(\d+)(?:-\d+)?$`)

func parse(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	var entries []Entry
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", sc.Text(), err)
		}
		e := Entry{Benchmark: m[1], Iters: iters, NsPerOp: ns}
		if sm := subName.FindStringSubmatch(m[1]); sm != nil {
			e.Backend = sm[1]
			e.N, _ = strconv.Atoi(sm[2])
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

// gateKey identifies a backend×n grid row independent of the -procs
// suffix (which varies across machines): "EngineInteractions/batch/n=1e6"
// on a 4-core and an 8-core runner are the same row. Entries without a
// parsed backend are not gated.
func gateKey(e Entry) (string, bool) {
	if e.Backend == "" {
		return "", false
	}
	base, _, _ := strings.Cut(e.Benchmark, "/")
	return fmt.Sprintf("%s/%s/n=%d", base, e.Backend, e.N), true
}

// compareEntries diffs fresh against baseline at the given relative
// tolerance. It returns one report line per gated row plus the number of
// regressions and an error for structural problems (a baseline row
// missing from fresh means the gate lost coverage and is an error).
func compareEntries(baseline, fresh []Entry, tolerance float64) (report []string, regressions int, err error) {
	freshByKey := map[string]Entry{}
	for _, e := range fresh {
		if k, ok := gateKey(e); ok {
			freshByKey[k] = e
		}
	}
	baseKeys := map[string]bool{}
	var missing []string
	for _, be := range baseline {
		k, ok := gateKey(be)
		if !ok {
			continue
		}
		baseKeys[k] = true
		fe, ok := freshByKey[k]
		if !ok {
			missing = append(missing, k)
			continue
		}
		ratio := fe.NsPerOp / be.NsPerOp
		status := "ok"
		if ratio > 1+tolerance {
			status = fmt.Sprintf("REGRESSION (>%+.0f%%)", tolerance*100)
			regressions++
		}
		report = append(report, fmt.Sprintf("%-50s %10.2f → %10.2f ns/op  %+6.1f%%  %s",
			k, be.NsPerOp, fe.NsPerOp, (ratio-1)*100, status))
	}
	for _, e := range fresh {
		if k, ok := gateKey(e); ok && !baseKeys[k] {
			report = append(report, fmt.Sprintf("%-50s %10s → %10.2f ns/op  (new row, not gated — refresh the baseline)",
				k, "—", e.NsPerOp))
		}
	}
	sort.Strings(report)
	if len(missing) > 0 {
		sort.Strings(missing)
		return report, regressions, fmt.Errorf("benchjson: baseline rows missing from the fresh artifact (gate lost coverage): %s",
			strings.Join(missing, ", "))
	}
	if len(baseKeys) == 0 {
		return report, regressions, fmt.Errorf("benchjson: baseline contains no backend×n rows to gate on")
	}
	return report, regressions, nil
}

// normalizeEntries rescales both artifacts' gated rows by their own
// geometric mean over the keys present in both, so that comparing them
// measures relative movement between rows rather than absolute machine
// speed. Entries whose key is missing from the other artifact keep their
// raw value (they are reported, not gated). Returns rescaled copies.
func normalizeEntries(baseline, fresh []Entry) (nb, nf []Entry) {
	keys := func(es []Entry) map[string]bool {
		m := map[string]bool{}
		for _, e := range es {
			if k, ok := gateKey(e); ok {
				m[k] = true
			}
		}
		return m
	}
	bk, fk := keys(baseline), keys(fresh)
	geomean := func(es []Entry, common map[string]bool) float64 {
		var logSum float64
		var n int
		for _, e := range es {
			if k, ok := gateKey(e); ok && common[k] && e.NsPerOp > 0 {
				logSum += math.Log(e.NsPerOp)
				n++
			}
		}
		if n == 0 {
			return 1
		}
		return math.Exp(logSum / float64(n))
	}
	scale := func(es []Entry, common map[string]bool, div float64) []Entry {
		out := make([]Entry, len(es))
		for i, e := range es {
			if k, ok := gateKey(e); ok && common[k] {
				e.NsPerOp /= div
			}
			out[i] = e
		}
		return out
	}
	return scale(baseline, fk, geomean(baseline, fk)), scale(fresh, bk, geomean(fresh, bk))
}

// readEntriesFile loads a JSON artifact previously written by this
// command.
func readEntriesFile(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("benchjson: malformed artifact %s: %w", path, err)
	}
	return entries, nil
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON artifact: diff the fresh artifact (positional arg) against it and exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 0.30, "relative ns/op slowdown tolerated by -compare before failing")
	normalized := flag.Bool("normalize", false, "compare rows relative to each artifact's geometric mean (machine-speed independent; blind to uniform slowdowns)")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly one positional argument (the fresh JSON artifact)")
			os.Exit(1)
		}
		baseline, err := readEntriesFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fresh, err := readEntriesFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *normalized {
			fmt.Println("rows normalized by each artifact's geometric mean (relative comparison)")
			baseline, fresh = normalizeEntries(baseline, fresh)
		}
		report, regressions, err := compareEntries(baseline, fresh, *tolerance)
		for _, line := range report {
			fmt.Println(line)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d backend×n row(s) regressed more than %.0f%%\n", regressions, *tolerance*100)
			os.Exit(1)
		}
		fmt.Printf("benchjson: no backend×n regression beyond %.0f%% of baseline\n", *tolerance*100)
		return
	}

	entries, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
