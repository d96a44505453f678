// Byte-identity oracle for the sequential engine. refSim is the agent-array
// stepping loop Sim ran before it gained the interned-id cached tier, kept
// verbatim: every Step draws the pair with two IntN calls and hands the
// rule the engine's own rand.Rand. Sim must reproduce it exactly — same
// agent array, same distinct-state set, same per-agent interaction counts,
// same random stream — whatever tier it runs in, across churn, forced tier
// switches, compactions and snapshot/restore. CheckSimMatchesReference and
// the Sim test hooks below are exported (test-only) so the protocol cases
// in sim_ref_cases_test.go, which import protocol packages and therefore live
// in package pop_test, share this harness with FuzzSimMatchesReference.
package pop

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
)

// refSim is the reference sequential engine (the pre-cache Sim).
type refSim[S comparable] struct {
	pcg          *rand.PCG
	rng          *rand.Rand
	agents       []S
	rule         Rule[S]
	interactions int64
	seen         map[S]struct{}
	icounts      []int64
}

func newRefSim[S comparable](n int, initial func(int, *rand.Rand) S, rule Rule[S], seed uint64, track, icounts bool) *refSim[S] {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	r := &refSim[S]{pcg: pcg, rng: rand.New(pcg), agents: make([]S, n), rule: rule}
	for i := range r.agents {
		r.agents[i] = initial(i, r.rng)
	}
	if track {
		r.seen = make(map[S]struct{})
		for _, a := range r.agents {
			r.seen[a] = struct{}{}
		}
	}
	if icounts {
		r.icounts = make([]int64, n)
	}
	return r
}

func (r *refSim[S]) Step() {
	n := len(r.agents)
	i := r.rng.IntN(n)
	j := r.rng.IntN(n - 1)
	if j >= i {
		j++
	}
	a, b := r.rule(r.agents[i], r.agents[j], r.rng)
	r.agents[i], r.agents[j] = a, b
	r.interactions++
	if r.icounts != nil {
		r.icounts[i]++
		r.icounts[j]++
	}
	if r.seen != nil {
		r.seen[a] = struct{}{}
		r.seen[b] = struct{}{}
	}
}

func (r *refSim[S]) AddAgents(st S, k int) {
	if k == 0 {
		return
	}
	for i := 0; i < k; i++ {
		r.agents = append(r.agents, st)
	}
	if r.icounts != nil {
		r.icounts = append(r.icounts, make([]int64, k)...)
	}
	if r.seen != nil {
		r.seen[st] = struct{}{}
	}
}

func (r *refSim[S]) RemoveAgents(k int) {
	for ; k > 0; k-- {
		n := len(r.agents)
		j := r.rng.IntN(n)
		r.agents[j] = r.agents[n-1]
		r.agents = r.agents[:n-1]
		if r.icounts != nil {
			r.icounts[j] = r.icounts[n-1]
			r.icounts = r.icounts[:n-1]
		}
	}
}

// SimOpKind is one step of a CheckSimMatchesReference script.
type SimOpKind int

const (
	OpRun         SimOpKind = iota // Run(K) on both engines
	OpStep                         // K single Steps on both engines
	OpAdd                          // AddAgents(join, K) on both
	OpRemove                       // RemoveAgents(K) on both (skipped if it would leave < 2)
	OpForceDirect                  // switch Sim to the direct tier
	OpForceCached                  // switch Sim to the cached tier (may be refused)
	OpPin                          // suppress automatic tier switches
	OpUnpin                        // re-enable them
	OpSnapshot                     // snapshot Sim, restore it, continue on the restored copy
)

// SimOp is a script step; K is its count where one applies.
type SimOp struct {
	Kind SimOpKind
	K    int
}

// SimRefCase describes one scripted comparison.
type SimRefCase[S comparable] struct {
	N         int
	Initial   func(int, *rand.Rand) S
	Rule      Rule[S]
	Seed      uint64
	Join      S    // state OpAdd joins with
	Track     bool // WithStateTracking on both engines
	ICounts   bool // WithInteractionCounts on both engines
	NoMarshal bool // S cannot round-trip through JSON: OpSnapshot restores the in-memory value only
}

// SimRefReport summarizes which engine machinery a script exercised, so
// callers can assert their case covered what it claims to.
type SimRefReport struct {
	CachedSteps bool // some interaction ran on the cached tier
	DirectSteps bool // some interaction ran on the direct tier
	Compacted   bool // the interning table was compacted at least once
	Snapshots   int  // OpSnapshot steps taken
}

// CheckSimMatchesReference runs c's engine and the reference oracle
// through ops, failing t at the first state where they differ.
func CheckSimMatchesReference[S comparable](t testing.TB, c SimRefCase[S], ops []SimOp) SimRefReport {
	t.Helper()
	opts := []Option{WithSeed(c.Seed)}
	if c.Track {
		opts = append(opts, WithStateTracking())
	}
	if c.ICounts {
		opts = append(opts, WithInteractionCounts())
	}
	s := New(c.N, c.Initial, c.Rule, opts...)
	ref := newRefSim(c.N, c.Initial, c.Rule, c.Seed, c.Track, c.ICounts)
	var rep SimRefReport
	check := func(step int, op SimOp) {
		t.Helper()
		if s.N() != len(ref.agents) || s.Interactions() != ref.interactions {
			t.Fatalf("op %d %+v: n=%d interactions=%d, reference n=%d interactions=%d",
				step, op, s.N(), s.Interactions(), len(ref.agents), ref.interactions)
		}
		if got := s.Agents(); !reflect.DeepEqual(got, ref.agents) {
			for i := range min(len(got), len(ref.agents)) {
				if got[i] != ref.agents[i] {
					t.Fatalf("op %d %+v: agent %d is %v, reference %v", step, op, i, got[i], ref.agents[i])
				}
			}
			t.Fatalf("op %d %+v: Agents() has %d agents, reference %d", step, op, len(got), len(ref.agents))
		}
		if got, want := s.DistinctStates(), len(ref.seen); got != want {
			t.Fatalf("op %d %+v: DistinctStates %d, reference %d", step, op, got, want)
		}
		if c.ICounts && !reflect.DeepEqual(s.icounts, ref.icounts) {
			t.Fatalf("op %d %+v: per-agent interaction counts diverged", step, op)
		}
		got, _ := s.pcg.MarshalBinary()
		want, _ := ref.pcg.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d %+v: random streams diverged", step, op)
		}
	}
	for step, op := range ops {
		switch op.Kind {
		case OpRun, OpStep:
			cached, gen := !s.direct, s.cacheGen
			rep.DirectSteps = rep.DirectSteps || !cached
			rep.CachedSteps = rep.CachedSteps || cached
			if op.Kind == OpRun {
				s.Run(int64(op.K))
			} else {
				for i := 0; i < op.K; i++ {
					s.Step()
				}
			}
			for i := 0; i < op.K; i++ {
				ref.Step()
			}
			// Within one cached stint only compaction advances the
			// cache generation.
			if cached && !s.direct && s.cacheGen != gen {
				rep.Compacted = true
			}
		case OpAdd:
			s.AddAgents(c.Join, op.K)
			ref.AddAgents(c.Join, op.K)
		case OpRemove:
			if len(ref.agents)-op.K < 2 {
				continue
			}
			s.RemoveAgents(op.K)
			ref.RemoveAgents(op.K)
		case OpForceDirect:
			if !s.direct {
				s.enterDirect()
			}
		case OpForceCached:
			if s.direct && !s.enterCached() {
				s.stayDirect()
			}
		case OpPin:
			s.pinTier = true
		case OpUnpin:
			s.pinTier = false
		case OpSnapshot:
			rep.Snapshots++
			s = roundTripSim(t, s, c)
		}
		check(step, op)
	}
	return rep
}

// roundTripSim snapshots s, restores the snapshot (through its JSON form
// unless the case opts out), and checks that the restored engine
// re-snapshots to identical bytes. The restored engine keeps s's tier pin.
func roundTripSim[S comparable](t testing.TB, s *Sim[S], c SimRefCase[S]) *Sim[S] {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restoreFrom := snap
	if !c.NoMarshal {
		data, err := snap.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if restoreFrom, err = UnmarshalSnapshot[S](data); err != nil {
			t.Fatalf("UnmarshalSnapshot: %v", err)
		}
	}
	e, err := Restore(restoreFrom, c.Rule)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	r := e.(*Sim[S])
	again, err := r.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after restore: %v", err)
	}
	if !c.NoMarshal {
		a, _ := snap.Marshal()
		b, _ := again.Marshal()
		if !bytes.Equal(a, b) {
			t.Fatalf("restored engine re-snapshots differently:\n%.300s\n%.300s", a, b)
		}
	} else if !reflect.DeepEqual(snap, again) {
		t.Fatalf("restored engine re-snapshots differently")
	}
	if s.pinTier {
		// Hold the restored engine in the tier s was pinned to.
		r.pinTier = true
		if s.direct && !r.direct {
			r.enterDirect()
		} else if !s.direct && r.direct && !r.enterCached() {
			t.Fatalf("restored engine refused the cached tier its source was pinned to")
		}
	}
	return r
}

// SimScript is the standard CheckSimMatchesReference script: free runs
// with automatic tiering, pinned stints in each tier with a forced switch
// into each, a long cached stint (long enough for a state-minting
// protocol to compact its table) before any churn can remove the agent
// that mints, churn in both tiers, single Steps, and a snapshot/restore in
// each tier and after the long stint.
func SimScript(n int) []SimOp {
	return []SimOp{
		{OpRun, 3 * n}, {OpStep, 50}, {OpRun, 20 * n}, {OpSnapshot, 0},
		{OpForceDirect, 0}, {OpPin, 0}, {OpRun, 5 * n}, {OpSnapshot, 0}, {OpRun, n},
		{OpForceCached, 0}, {OpRun, 5 * n}, {OpSnapshot, 0},
		{OpRun, 1000 * n}, {OpSnapshot, 0}, {OpRun, 3000}, {OpUnpin, 0},
		{OpAdd, n / 3}, {OpRun, 4 * n}, {OpRemove, n / 2}, {OpRun, 4 * n},
		{OpPin, 0}, {OpForceDirect, 0}, {OpAdd, 5}, {OpRemove, 7}, {OpRun, n},
		{OpForceCached, 0}, {OpAdd, 5}, {OpRemove, 7}, {OpStep, 20}, {OpRun, 30 * n},
		{OpSnapshot, 0}, {OpRun, 2 * n}, {OpUnpin, 0}, {OpRun, 40 * n},
		{OpSnapshot, 0}, {OpRun, 5 * n},
	}
}

// FuzzSimMatchesReference runs the random transition tables of
// fuzz_table_test.go — deterministic and weighted-coin entries mixed, so
// some pairs cache and some never do — through Sim and the reference
// oracle under SimScript, with the population size, seed and state
// tracking drawn from the input.
func FuzzSimMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(40), []byte{0x00, 0x01, 0x02, 0x03, 0x04})
	f.Add(uint64(2), uint8(7), []byte{0x03, 0xff, 0x00, 0x02, 0x04, 0x10, 0x11, 0x12, 0x13})
	f.Add(uint64(3), uint8(130), []byte{0x02, 0x01, 0x01, 0x01, 0x01})
	f.Add(uint64(4), uint8(2), []byte{0x01, 0x00, 0x01, 0x02, 0x07, 0x01, 0x02, 0x00, 0x04})
	f.Add(uint64(5), uint8(255), bytes.Repeat([]byte{0x05, 0x09, 0x21, 0x08}, 8))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, raw []byte) {
		if len(raw) == 0 {
			t.Skip()
		}
		tbl, _ := fuzzTable(raw)
		c, err := CompileRule(tbl)
		if err != nil {
			t.Fatalf("decoder emitted a table CompileRule rejects: %v\n%v", err, tbl)
		}
		declared := c.States()
		n := 2 + int(size)
		CheckSimMatchesReference(t, SimRefCase[int]{
			N:       n,
			Initial: func(i int, _ *rand.Rand) int { return declared[i%len(declared)] },
			Rule:    c.Rule(),
			Seed:    seed,
			Join:    declared[len(declared)-1],
			Track:   seed%2 == 0,
			ICounts: seed%3 == 0,
		}, SimScript(n))
	})
}
