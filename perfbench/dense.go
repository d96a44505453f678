package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// The dense-1e6 workload: the first 100 parallel-time units of
// Log-Size-Estimation (FastConfig) at n = 10⁶ on the dense backend with
// default parallelism, from a cold engine, checked for convergence every
// 10 units through the public RunUntil. The prefix exercises the
// pair-matrix and Fenwick light-draw path and the dense→batch delegation:
// the configuration disperses while the agents partition and sample
// logSize2, so the engine delegates to the batch engine for the first
// ~28 units (~28% of interactions) and then runs dense.
const (
	denseN       = 1_000_000
	denseHorizon = 100.0
	denseCheck   = 10.0
	// denseUnitS is the nominal cost of one prefix.
	denseUnitS = 11.0
	// denseSetupReps: one cold engine takes ~55 ms to construct, steady to
	// a few percent, so fewer repetitions than elsewhere suffice.
	denseSetupReps = 5
)

func runDense(cfg config, tr *tracer) (*pass, error) {
	n, horizon := denseN, denseHorizon
	units := cfg.units(denseUnitS)
	if cfg.tiny {
		n, horizon = 20_000, 40
	}
	p := &pass{}
	tot := &engineTotals{}
	proto := core.MustNew(core.FastConfig())
	opts := func(seed uint64) []pop.Option {
		return []pop.Option{pop.WithSeed(seed), pop.WithBackend(pop.Dense), pop.WithParallelism(0)}
	}

	// Set-up: constructing the cold engines; the first units of them run.
	engines := make([]pop.Engine[core.State], 0, units)
	counters := make([]*ruleCounter, 0, units)
	for i := 0; i < max(denseSetupReps, units); i++ {
		seed := pop.TrialSeed(cfg.seed, "dense", i)
		rc := &ruleCounter{}
		settle()
		start := time.Now()
		var e pop.Engine[core.State]
		if tr == nil {
			e = proto.NewEngine(n, opts(seed)...)
		} else {
			e = pop.NewEngine(n, proto.Initial, countRule(proto.Rule, rc), opts(seed)...)
		}
		end := time.Now()
		p.setup = append(p.setup, end.Sub(start).Seconds())
		if tr != nil {
			tr.add(tr.root, "pop.construct", start, end)
		}
		if i < units {
			engines = append(engines, e)
			counters = append(counters, rc)
		}
	}

	var out []byte
	start := time.Now()
	for i, e := range engines {
		settle()
		t0 := time.Now()
		if tr == nil {
			e.RunUntil(proto.Converged, denseCheck, horizon)
		} else {
			id := tr.open(tr.root, "trial")
			runTraced(tr, id, e, proto.Converged, denseCheck, horizon, counters[i], tot)
			tr.close(id)
		}
		p.trials = append(p.trials, since(t0))

		counts := e.Counts()
		total := 0
		lines := make([]string, 0, len(counts))
		for s, c := range counts {
			total += c
			lines = append(lines, fmt.Sprintf("%+v %d\n", s, c))
		}
		sort.Strings(lines)
		want := int64(horizon) * int64(n)
		p.check(total == n && e.Interactions() == want,
			"dense unit %d: Σ counts = %d (want %d), interactions = %d (want %d)", i, total, n, e.Interactions(), want)
		out = fmt.Appendf(out, "unit %d: interactions %d\n", i, e.Interactions())
		for _, l := range lines {
			out = append(out, l...)
		}
		engines[i] = nil // let the finished engine go before the next unit runs
	}
	p.wall = since(start)
	p.output = out
	if tr != nil {
		p.layers = tot.layers(true)
		p.layers["pop.construct.s"] = median(tr.durations("pop.construct"))
	}
	return p, nil
}
