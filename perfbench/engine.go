package main

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/popsim/popsize/internal/pop"
)

// ruleCounter aggregates the invocations of one engine's rule: a count and
// a summed time, attributed to the engine chunk they fall in rather than
// recorded as a span per call. The counters are atomic because an engine
// on the parallel splitter path may call the rule from several goroutines.
type ruleCounter struct{ calls, ns atomic.Int64 }

// countRule forwards rule, counting and timing each call. It consumes no
// randomness of its own, so the engine's trajectory is unchanged.
func countRule[S comparable](rule pop.Rule[S], c *ruleCounter) pop.Rule[S] {
	return func(rec, sen S, r *rand.Rand) (S, S) {
		t := time.Now()
		rec, sen = rule(rec, sen, r)
		c.ns.Add(int64(time.Since(t)))
		c.calls.Add(1)
		return rec, sen
	}
}

// engineTotals accumulates what the traced engine runs of one pass did.
type engineTotals struct {
	runS         float64 // time inside engine run calls, predicates excluded
	interactions int64
	predCalls    int64
	predS        float64
	ruleCalls    int64
	ruleNS       int64
	batch        pop.BatchStats
	dense        pop.DenseStats
}

// runTraced is e.RunUntil(pred, checkEvery, maxTime) with a pop.run span
// per engine chunk — from the end of one predicate evaluation to the end
// of the next — holding a predicate child span and the chunk's aggregated
// rule calls.
func runTraced[S comparable](tr *tracer, parent int, e pop.Engine[S], pred func(pop.Engine[S]) bool,
	checkEvery, maxTime float64, rc *ruleCounter, tot *engineTotals) (bool, float64) {
	last := time.Now()
	lastI := e.Interactions()
	var lastCalls, lastNS, predCalls int64
	var runS, predS float64
	traced := func(e pop.Engine[S]) bool {
		ps := time.Now()
		ok := pred(e)
		pe := time.Now()
		calls, ns := rc.calls.Load(), rc.ns.Load()
		chunk := tr.add(parent, "pop.run", last, pe)
		tr.calls(chunk, calls-lastCalls, time.Duration(ns-lastNS))
		tr.add(chunk, "predicate", ps, pe)
		runS += ps.Sub(last).Seconds()
		predS += pe.Sub(ps).Seconds()
		predCalls++
		last, lastCalls, lastNS = pe, calls, ns
		return ok
	}
	ok, at := e.RunUntil(traced, checkEvery, maxTime)

	tot.runS += runS
	tot.interactions += e.Interactions() - lastI
	tot.predCalls += predCalls
	tot.predS += predS
	tot.ruleCalls += rc.calls.Load()
	tot.ruleNS += rc.ns.Load()
	switch v := e.(type) {
	case *pop.BatchSim[S]:
		addBatch(&tot.batch, v.Stats())
	case *pop.DenseSim[S]:
		addDense(&tot.dense, v.Stats())
	}
	return ok, at
}

func addBatch(a *pop.BatchStats, b pop.BatchStats) {
	a.Batches += b.Batches
	a.BatchedInteractions += b.BatchedInteractions
	a.SeqInteractions += b.SeqInteractions
	a.Fallbacks += b.Fallbacks
	a.Reentries += b.Reentries
	a.CacheHits += b.CacheHits
	a.RuleCalls += b.RuleCalls
	a.UncachedPairs += b.UncachedPairs
	a.TableHits += b.TableHits
	a.Compactions += b.Compactions
}

func addDense(a *pop.DenseStats, b pop.DenseStats) {
	a.Batches += b.Batches
	a.BatchedInteractions += b.BatchedInteractions
	a.DelegatedInteractions += b.DelegatedInteractions
	a.Delegations += b.Delegations
	a.Reentries += b.Reentries
	a.PairCells += b.PairCells
	a.CacheHits += b.CacheHits
	a.RuleCalls += b.RuleCalls
	a.TableHits += b.TableHits
	a.Compactions += b.Compactions
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers reports the engine-layer metrics of a pass. core.converged.* is
// filled only when the predicate is the core protocol's.
func (t *engineTotals) layers(corePredicate bool) map[string]float64 {
	b, d := t.batch, t.dense
	m := map[string]float64{
		"pop.run.ns_per_interaction": ratio(t.runS*1e9, float64(t.interactions)),
		"core.rule.calls":            float64(t.ruleCalls),
		"core.rule.ns_per_call":      ratio(float64(t.ruleNS), float64(t.ruleCalls)),

		"pop.batch.batches":         float64(b.Batches),
		"pop.batch.mean_len":        ratio(float64(b.BatchedInteractions), float64(b.Batches)),
		"pop.batch.cache_hit_ratio": ratio(float64(b.CacheHits), float64(b.CacheHits+b.RuleCalls)),
		"pop.batch.rule_calls":      float64(b.RuleCalls),
		"pop.batch.seq_share":       ratio(float64(b.SeqInteractions), float64(b.BatchedInteractions+b.SeqInteractions)),
		"pop.batch.fallbacks":       float64(b.Fallbacks),
		"pop.batch.compactions":     float64(b.Compactions),

		"pop.dense.batches":              float64(d.Batches),
		"pop.dense.mean_len":             ratio(float64(d.BatchedInteractions), float64(d.Batches)),
		"pop.dense.pair_cells_per_batch": ratio(float64(d.PairCells), float64(d.Batches)),
		"pop.dense.cache_hit_ratio":      ratio(float64(d.CacheHits), float64(d.CacheHits+d.RuleCalls)),
		"pop.dense.table_share":          ratio(float64(d.TableHits), float64(d.TableHits+d.CacheHits+d.RuleCalls)),
		"pop.dense.compactions":          float64(d.Compactions),
		"pop.dense.delegated_share":      ratio(float64(d.DelegatedInteractions), float64(d.BatchedInteractions+d.DelegatedInteractions)),
		"pop.dense.delegations":          float64(d.Delegations),
	}
	if corePredicate {
		m["core.converged.calls"] = float64(t.predCalls)
		m["core.converged.s"] = t.predS
	}
	return m
}
