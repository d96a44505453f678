package main

import (
	"fmt"
	"math"
	"time"

	"github.com/popsim/popsize"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/pop"
)

// The estimate workload: Log-Size-Estimation (FastConfig) from the uniform
// initial configuration to convergence at n = 10⁴ through
// popsize.Estimator.Run with the default backend and parallelism (auto →
// batch), one trial after another.
//
// A trial's convergence time is set by the logSize2 value the protocol
// samples (the maximum of the agents' geometric draws): it spans 11–18 at
// n = 10⁴ and the time grows with its square, so trial wall times spread
// by ±25% across seeds. To keep runs with different workload seeds
// comparable, every trial is drawn at logSize2 = ⌊log₂ n⌉, the median
// value: candidate trial seeds derive from the workload seed, and a
// candidate is kept when its engine, run for the first convergence-check
// interval (by which logSize2 has settled), holds that value.
const (
	estimateN = 10_000
	// estimateTrialS is the nominal cost of one trial.
	estimateTrialS = 4.5
	// paperErrBound is the paper's accuracy guarantee: every agent's
	// estimate is within 5.7 of log₂ n.
	paperErrBound = 5.7
	// maxCandidates bounds the trial-seed search per kept trial.
	maxCandidates = 64
)

func runEstimate(cfg config, tr *tracer) (*pass, error) {
	n := estimateN
	trials := cfg.units(estimateTrialS)
	if cfg.tiny {
		n, trials = 4096, 2
	}
	p := &pass{}
	tot := &engineTotals{}
	proto := core.MustNew(core.FastConfig())
	opts := func(seed uint64) []pop.Option {
		// The options popsize.Estimator.Run passes for a default
		// RunOptions{Seed: seed}.
		return []pop.Option{pop.WithSeed(seed), pop.WithBackend(pop.Auto), pop.WithParallelism(0)}
	}

	// Set-up: constructing the estimator and one trial's engine.
	var est *popsize.Estimator
	for i := 0; i < setupReps; i++ {
		settle()
		start := time.Now()
		e, err := popsize.New(popsize.FastConfig())
		if err != nil {
			return nil, err
		}
		est = e
		cs := time.Now()
		_ = proto.NewEngine(n, opts(pop.TrialSeed(cfg.seed, "estimate-setup", i))...)
		end := time.Now()
		p.setup = append(p.setup, end.Sub(start).Seconds())
		if tr != nil {
			tr.add(tr.root, "pop.construct", cs, end)
		}
	}

	seeds, err := estimateSeeds(proto, cfg.seed, n, trials, opts)
	if err != nil {
		return nil, err
	}
	results := make([]core.Result, trials)
	start := time.Now()
	for i, seed := range seeds {
		settle()
		t0 := time.Now()
		if tr == nil {
			results[i] = est.Run(n, popsize.RunOptions{Seed: seed})
		} else {
			id := tr.open(tr.root, "trial")
			results[i] = tracedEstimate(tr, id, proto, n, opts(seed), tot)
			tr.close(id)
		}
		p.trials = append(p.trials, since(t0))
	}
	p.wall = since(start)

	var out []byte
	for i, r := range results {
		p.check(r.Converged && r.MaxErr <= paperErrBound,
			"estimate trial %d: converged=%v max error %.3f (bound %.1f)", i, r.Converged, r.MaxErr, paperErrBound)
		out = fmt.Appendf(out, "trial %d: %+v\n", i, r)
	}
	p.output = out
	if tr != nil {
		p.layers = tot.layers(true)
		p.layers["core.estimates.s"] = sum(tr.durations("core.estimates"))
		p.layers["pop.construct.s"] = median(tr.durations("pop.construct"))
	}
	return p, nil
}

// tracedEstimate is core.Protocol.Run for a fresh engine, spelled out so
// each step is a span: engine construction, the convergence loop in engine
// chunks, and the output statistics. It must return exactly the Result
// popsize.Estimator.Run returns for the same options; the neutrality check
// compares them.
func tracedEstimate(tr *tracer, parent int, p *core.Protocol, n int, opts []pop.Option, tot *engineTotals) core.Result {
	rc := &ruleCounter{}
	cs := time.Now()
	s := pop.NewEngine(n, p.Initial, countRule(p.Rule, rc), opts...)
	tr.add(parent, "pop.construct", cs, time.Now())

	check := math.Max(1, math.Log2(float64(n)))
	ok, at := runTraced(tr, parent, s, p.Converged, check, p.DefaultMaxTime(n), rc, tot)

	es := time.Now()
	est := core.Estimates(s)
	tr.add(parent, "core.estimates", es, time.Now())
	return core.Result{
		N:              n,
		Converged:      ok,
		Time:           at,
		Estimate:       est.Mean,
		MaxErr:         est.MaxErr,
		DistinctStates: s.DistinctStates(),
		CountA:         s.Count(func(a core.State) bool { return a.Role == core.RoleA }),
		LogSize2:       int(core.Maxima(s).LogSize2),
	}
}

// estimateSeeds returns the first k trial seeds, in derivation order, whose
// sampled logSize2 is ⌊log₂ n⌉.
func estimateSeeds(p *core.Protocol, seed uint64, n, k int, opts func(uint64) []pop.Option) ([]uint64, error) {
	want := uint8(math.Round(math.Log2(float64(n))))
	check := math.Max(1, math.Log2(float64(n)))
	var seeds []uint64
	for i := 0; len(seeds) < k; i++ {
		if i == maxCandidates*k {
			return nil, fmt.Errorf("no %d of %d candidate trial seeds sample logSize2 = %d", k, i, want)
		}
		s := pop.TrialSeed(seed, "estimate", i)
		e := p.NewEngine(n, opts(s)...)
		e.RunTime(check)
		if core.Maxima(e).LogSize2 == want {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
