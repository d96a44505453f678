// Protocol cases for the sequential engine's byte-identity oracle (see
// sim_ref_test.go): the repository's protocols and two synthetic rules
// chosen to stress the transition cache and its tiers, each run through
// SimScript against the pre-cache stepping loop.
package pop_test

import (
	"math/rand/v2"
	"testing"

	"github.com/popsim/popsize/internal/compose"
	"github.com/popsim/popsize/internal/core"
	"github.com/popsim/popsize/internal/exactcount"
	"github.com/popsim/popsize/internal/majority"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/producible"
)

// distinctState gives every agent its own state forever (ID never
// changes, C counts the agent's interactions): the cache never hits and
// the interning table only grows, the cached tier's worst case.
type distinctState struct{ ID, C uint32 }

func distinctRule(rec, sen distinctState, _ *rand.Rand) (distinctState, distinctState) {
	rec.C++
	sen.C++
	return rec, sen
}

// partlyRandomRule draws randomness only when the two states are equal,
// so the same protocol has cacheable and never-cacheable pairs.
func partlyRandomRule(rec, sen int, r *rand.Rand) (int, int) {
	if rec == sen {
		return r.IntN(12), sen
	}
	return (rec + sen) % 12, rec
}

// want asserts that a case exercised what it claims to.
type want struct{ cached, direct, compacted bool }

func checkReport(t *testing.T, rep pop.SimRefReport, w want) {
	t.Helper()
	if w.cached && !rep.CachedSteps {
		t.Error("no interaction ran on the cached tier")
	}
	if w.direct && !rep.DirectSteps {
		t.Error("no interaction ran on the direct tier")
	}
	if w.compacted && !rep.Compacted {
		t.Error("the interning table was never compacted")
	}
	if rep.Snapshots == 0 {
		t.Error("no snapshot was taken")
	}
}

func TestSimMatchesReference(t *testing.T) {
	all := want{cached: true, direct: true}
	t.Run("core", func(t *testing.T) {
		p := core.MustNew(core.FastConfig())
		const n = 300
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[core.State]{
			N: n, Initial: p.Initial, Rule: p.Rule, Seed: 11, Join: core.Initial(), Track: true,
		}, pop.SimScript(n))
		checkReport(t, rep, all)
	})
	t.Run("exactcount", func(t *testing.T) {
		// Large enough that the leader is still counting through the long
		// pinned cached stint, minting a state per leader interaction.
		p := exactcount.New(0)
		const n = 400
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[exactcount.State]{
			N: n, Initial: p.Initial, Rule: p.Rule, Seed: 12, Join: exactcount.State{},
			Track: true, ICounts: true,
		}, pop.SimScript(n))
		checkReport(t, rep, want{cached: true, direct: true, compacted: true})
	})
	t.Run("compose+majority", func(t *testing.T) {
		const n = 100
		opinions := make([]int8, n)
		for i := range opinions {
			opinions[i] = int8(1 - 2*(i%5/3)) // 60/40 split
		}
		p := compose.MustNew(compose.Config{F: 16}, majority.Downstream(opinions[:n]))
		join := p.Initial(0, rand.New(rand.NewPCG(1, 2)))
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[compose.State[majority.State]]{
			N: n, Initial: p.Initial, Rule: p.Rule, Seed: 13, Join: join, Track: true,
		}, pop.SimScript(n))
		checkReport(t, rep, all)
	})
	t.Run("producible", func(t *testing.T) {
		// ApproxMajority's declared pairs always draw a Float64, even
		// with probability-1 outcomes; undeclared pairs are null
		// transitions that cache.
		p := producible.ApproxMajority()
		const n = 100
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[int]{
			N: n, Initial: func(i int, _ *rand.Rand) int { return i % 3 }, Rule: p.Rule(),
			Seed: 14, Join: 2, Track: true, ICounts: true,
		}, pop.SimScript(n))
		checkReport(t, rep, all)
	})
	t.Run("partly-random", func(t *testing.T) {
		const n = 90
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[int]{
			N: n, Initial: func(i int, _ *rand.Rand) int { return i % 12 }, Rule: partlyRandomRule,
			Seed: 15, Join: 5, Track: true,
		}, pop.SimScript(n))
		checkReport(t, rep, all)
	})
	t.Run("all-distinct", func(t *testing.T) {
		const n = 50
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[distinctState]{
			N:       n,
			Initial: func(i int, _ *rand.Rand) distinctState { return distinctState{ID: uint32(i)} },
			Rule:    distinctRule, Seed: 16, Join: distinctState{ID: 1 << 20}, Track: true,
		}, pop.SimScript(n))
		checkReport(t, rep, want{cached: true, direct: true, compacted: true})
	})
	t.Run("all-distinct/large", func(t *testing.T) {
		// Beyond max(1024, n/8) distinct states the configuration is never
		// interned: construction, every retry and every forced switch stay
		// on the direct tier, and the run still matches.
		const n = 20000
		rep := pop.CheckSimMatchesReference(t, pop.SimRefCase[distinctState]{
			N:       n,
			Initial: func(i int, _ *rand.Rand) distinctState { return distinctState{ID: uint32(i)} },
			Rule:    distinctRule, Seed: 17, Join: distinctState{ID: 1 << 20},
		}, []pop.SimOp{
			{Kind: pop.OpRun, K: 40 * n}, {Kind: pop.OpForceCached}, {Kind: pop.OpRun, K: n},
			{Kind: pop.OpSnapshot}, {Kind: pop.OpRun, K: 20 * n},
		})
		checkReport(t, rep, want{direct: true})
		if rep.CachedSteps {
			t.Error("a fully dispersed configuration was interned")
		}
	})
}
