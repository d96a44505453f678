package pop

import (
	"math/rand/v2"
	"testing"
)

// restoreFuzzRule is the rule FuzzRestore runs restored engines with. It
// never mints a state (outputs are one of the inputs), so the live-state
// count of a restored engine never exceeds the states its snapshot names;
// tied pairs draw a coin first, so those cells stay uncacheable and the
// rule stream is exercised too.
func restoreFuzzRule(a, b int, r *rand.Rand) (int, int) {
	if a == b {
		r.IntN(2)
	}
	m := max(a, b)
	return m, m
}

// restoreFuzzMaxAgents caps the agent array a fuzzed snapshot may make an
// engine materialize.
const restoreFuzzMaxAgents = 1 << 20

// mayMaterializeHuge reports whether a restored engine could build an
// agent array of more than restoreFuzzMaxAgents agents. The batched engine
// materializes all N agents whenever its live states exceed its threshold —
// by design, for any construction — so a snapshot pairing an enormous N
// with a threshold below its state count asks for gigabytes legitimately.
// Such inputs are skipped: they test the host's memory, not Restore.
func mayMaterializeHuge(s *Snapshot[int]) bool {
	if s.N <= restoreFuzzMaxAgents {
		return false
	}
	states := len(s.States)
	thresholds := []int{s.QMax}
	if s.Backend == Dense.String() {
		q := s.BatchThreshold
		if q <= 0 {
			q = defaultBatchThreshold
		}
		thresholds = []int{q}
		if s.Inner != nil {
			states += len(s.Inner.States) + len(s.Inner.Agents)
			thresholds = append(thresholds, s.Inner.QMax)
		}
	}
	for _, q := range thresholds {
		if q < states {
			return true
		}
	}
	return false
}

// restoreFuzzSeeds are real snapshots of every engine mode: sequential,
// batched in multiset mode and in its agent-array fallback, and dense in
// pair-matrix mode and delegated to its inner batched engine.
func restoreFuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	const n = 600
	mod5 := func(i int, _ *rand.Rand) int { return i % 5 }
	zero := func(int, *rand.Rand) int { return 0 }
	engines := []Engine[int]{
		New(n, mod5, mixedRule, WithSeed(1)),
		NewBatch(n, mod5, mixedRule, WithSeed(2)),
		NewBatch(n, zero, explodeRule, WithSeed(3), WithBatchThreshold(16)),
		NewDense(n, mod5, mixedRule, WithSeed(4)),
		NewDense(n, zero, explodeRule, WithSeed(5), WithDenseThreshold(8)),
	}
	var blobs [][]byte
	for _, e := range engines {
		e.Run(20 * n)
		snap, err := e.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		b, err := snap.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if b := engines[2].(*BatchSim[int]); !b.seqMode {
		f.Fatal("seed setup: batched engine did not fall back")
	}
	if d := engines[4].(*DenseSim[int]); !d.Delegated() {
		f.Fatal("seed setup: dense engine did not delegate")
	}
	return blobs
}

// FuzzRestore feeds arbitrary snapshot JSON to UnmarshalSnapshot and
// Restore. Either one returns an error, or the restored engine keeps its
// population size, runs exactly k interactions on Run(k), and snapshots
// again into a snapshot that validates. It must never panic or hang.
func FuzzRestore(f *testing.F) {
	for i, b := range restoreFuzzSeeds(f) {
		f.Add(b, uint16(100*i+7))
	}
	f.Fuzz(func(t *testing.T, blob []byte, kRaw uint16) {
		snap, err := UnmarshalSnapshot[int](blob)
		if err != nil || mayMaterializeHuge(snap) {
			return
		}
		e, err := Restore(snap, restoreFuzzRule)
		if err != nil {
			return
		}
		k := int64(kRaw % 4096)
		n, before := e.N(), e.Interactions()
		e.Run(k)
		if got := e.Interactions() - before; got != k {
			t.Fatalf("Run(%d) ran %d interactions", k, got)
		}
		if e.N() != n {
			t.Fatalf("Run changed N from %d to %d", n, e.N())
		}
		again, err := e.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot after restore: %v", err)
		}
		if err := again.validate(); err != nil {
			t.Fatalf("re-snapshot does not validate: %v", err)
		}
	})
}
