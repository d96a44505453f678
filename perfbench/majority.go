package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/protocol"
	"github.com/popsim/popsize/internal/sweep"
)

// The majority-1e8 workload: the zoo's table-compiled approxmajority from
// its 54/46 split to consensus at n = 10⁸ through the protocol registry's
// runner, on the default backend (auto → dense). Batches are ~6·10³
// interactions over 3 states, so the run is dominated by heavy
// hypergeometric draws and the declared-table bypass (no rule calls, no
// delegation).
//
// The engine takes the deterministic splitter path (the default above
// 2²⁴ agents) with a one-worker target: the splitter's trajectory is the
// same for every worker count, and on the 2-core reference machine a
// second worker bought no speed (15.1 s against 16.6 s) while making the
// wall time depend on whether a neighbouring process held the second CPU
// (15.5–23.2 s over ten runs).
const (
	majorityN = 100_000_000
	// majorityUnitS is the nominal cost of one run to consensus.
	majorityUnitS = 15.5
	majorityName  = "approxmajority"
	majorityPar   = 1
)

func runMajority(cfg config, tr *tracer) (*pass, error) {
	n := majorityN
	units := cfg.units(majorityUnitS)
	if cfg.tiny {
		n = 200_000
	}
	p := &pass{}
	tot := &engineTotals{}
	pcfg := protocol.Config{N: n, Trials: units, Par: majorityPar}

	// Set-up: resolving and compiling the protocol, and constructing one
	// engine from its initial configuration.
	var runner *protocol.Runner
	for i := 0; i < setupReps; i++ {
		settle()
		start := time.Now()
		info, err := protocol.Lookup(majorityName)
		if err != nil {
			return nil, err
		}
		r, err := info.New(pcfg)
		if err != nil {
			return nil, err
		}
		runner = r
		cs := time.Now()
		_ = newMajorityEngine(n, pop.TrialSeed(cfg.seed, "majority-setup", i), protocol.AMCompiled().Rule())
		end := time.Now()
		p.setup = append(p.setup, end.Sub(start).Seconds())
		if tr != nil {
			tr.add(tr.root, "protocol.compile", start, cs)
			tr.add(tr.root, "pop.construct", cs, end)
		}
	}

	var out []byte
	start := time.Now()
	for i := 0; i < units; i++ {
		seed := pop.TrialSeed(cfg.seed, "majority", i)
		settle()
		t0 := time.Now()
		var v sweep.Values
		if tr == nil {
			v = runner.Run(i, seed)
		} else {
			id := tr.open(tr.root, "trial")
			v = tracedMajority(tr, id, n, seed, tot)
			tr.close(id)
		}
		p.trials = append(p.trials, since(t0))
		p.check(v["converged"] == 1 && v["winner"] == 1,
			"majority unit %d: converged=%v winner=%v (want consensus on +1)", i, v["converged"], v["winner"])
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = fmt.Appendf(out, "unit %d:", i)
		for _, k := range keys {
			out = fmt.Appendf(out, " %s=%v", k, v[k])
		}
		out = append(out, '\n')
	}
	p.wall = since(start)
	p.output = out
	if tr != nil {
		p.layers = tot.layers(false)
		p.layers["pop.construct.s"] = median(tr.durations("pop.construct"))
		p.layers["protocol.compile.s"] = median(tr.durations("protocol.compile"))
	}
	return p, nil
}

// newMajorityEngine builds the engine the registry's table harness builds
// for one trial: the 54/46 split as a count multiset, the default backend,
// the workload's parallelism, and the compiled table's bypass.
func newMajorityEngine(n int, seed uint64, rule pop.Rule[int]) pop.Engine[int] {
	a := (int64(n)*27 + 49) / 50
	return pop.NewEngineFromCounts([]int{1, -1}, []int64{a, int64(n) - a}, rule,
		pop.WithSeed(seed), pop.WithBackend(pop.Auto), pop.WithParallelism(majorityPar), protocol.AMCompiled().Option())
}

// tracedMajority is the registry runner's trial for approxmajority, spelled
// out so the engine run is traced in chunks; it must return exactly the
// runner's Values for the same seed (the neutrality check compares them).
func tracedMajority(tr *tracer, parent, n int, seed uint64, tot *engineTotals) sweep.Values {
	rc := &ruleCounter{}
	cs := time.Now()
	e := newMajorityEngine(n, seed, countRule(protocol.AMCompiled().Rule(), rc))
	tr.add(parent, "pop.construct", cs, time.Now())

	consensus := func(e pop.Engine[int]) bool {
		first, opinion := true, 0
		return e.All(func(s int) bool {
			if first {
				first, opinion = false, s
			}
			return s != 0 && s == opinion
		})
	}
	ok, at := runTraced(tr, parent, e, consensus, 0.5, 32*math.Log2(float64(n))+64, rc, tot)
	winner := 0.0
	if e.Count(func(s int) bool { return s == 1 }) == e.N() {
		winner = 1
	} else if e.Count(func(s int) bool { return s == -1 }) == e.N() {
		winner = -1
	}
	return sweep.Values{"converged": sweep.Bool(ok), "time": at, "winner": winner}
}
