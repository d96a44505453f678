package pop

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"
)

func nullInit(int, *rand.Rand) int { return 0 }

// TestNewEngineBackendSelection pins which concrete engine each Backend
// value produces, including Auto's population-size and instrumentation
// rules.
func TestNewEngineBackendSelection(t *testing.T) {
	isBatch := func(e Engine[int]) bool {
		_, ok := e.(*BatchSim[int])
		return ok
	}
	cases := []struct {
		name  string
		n     int
		opts  []Option
		batch bool
	}{
		{"sequential explicit", 100000, []Option{WithBackend(Sequential)}, false},
		{"batched explicit small n", 100, []Option{WithBackend(Batched)}, true},
		{"auto small n", 100, nil, false},
		{"auto large n", 8192, nil, true},
		{"auto large n with interaction counts", 8192, []Option{WithInteractionCounts()}, false},
	}
	for _, c := range cases {
		e := NewEngine(c.n, nullInit, amRule, c.opts...)
		if got := isBatch(e); got != c.batch {
			t.Errorf("%s: batched = %v, want %v", c.name, got, c.batch)
		}
		if e.N() != c.n {
			t.Errorf("%s: N = %d, want %d", c.name, e.N(), c.n)
		}
	}
}

// TestBackendsShareInitialConfiguration: for a fixed seed, both engines
// must start from the identical initial configuration (they consume the
// seed identically during initialization).
func TestBackendsShareInitialConfiguration(t *testing.T) {
	initial := func(i int, r *rand.Rand) int { return int(r.Int64N(40)) }
	s := NewEngine(5000, initial, amRule, WithSeed(17), WithBackend(Sequential))
	b := NewEngine(5000, initial, amRule, WithSeed(17), WithBackend(Batched))
	if !reflect.DeepEqual(s.Counts(), b.Counts()) {
		t.Error("initial configurations differ between backends")
	}
}

// TestParseBackend covers the flag syntax.
func TestParseBackend(t *testing.T) {
	for in, want := range map[string]Backend{
		"auto": Auto, "": Auto, "seq": Sequential, "Sequential": Sequential,
		"batch": Batched, "BATCHED": Batched,
	} {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackend("gpu"); err == nil {
		t.Error("ParseBackend accepted an unknown backend")
	}
}

// TestNewEngineFromConfigCopies: the input slice must not be aliased, on
// either backend.
func TestNewEngineFromConfigCopies(t *testing.T) {
	for _, be := range []Backend{Sequential, Batched} {
		src := []int{5, 5, 5, 5}
		e := NewEngineFromConfig(src, amRule, WithBackend(be))
		src[0] = 999
		if e.Count(func(v int) bool { return v == 999 }) != 0 {
			t.Errorf("%v: engine aliased the caller's slice", be)
		}
	}
}

// TestSequentialCountsTrajectoryDeterminism: the determinism regression
// for the reference engine — same seed, same Counts() trajectory.
func TestSequentialCountsTrajectoryDeterminism(t *testing.T) {
	mk := func() *Sim[int] {
		return New(3000, func(i int, r *rand.Rand) int { return int(r.Int64N(5)) - 2 }, amRule, WithSeed(23))
	}
	a, b := mk(), mk()
	for i := 0; i < 8; i++ {
		a.RunTime(1.5)
		b.RunTime(1.5)
		if !reflect.DeepEqual(a.Counts(), b.Counts()) {
			t.Fatalf("checkpoint %d: trajectories diverged", i)
		}
	}
	if !reflect.DeepEqual(a.AgentStates(), b.AgentStates()) {
		t.Error("final agent arrays differ")
	}
}

// TestRunTrials covers ordering, the worker cap, and genericity.
func TestRunTrials(t *testing.T) {
	var inFlight, peak atomic.Int32
	out := RunTrials(64, 4, func(tr int) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return tr * tr
	})
	if len(out) != 64 {
		t.Fatalf("got %d results", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("concurrency peaked at %d, cap was 4", p)
	}
}

// TestParallelismIsNoOp: WithParallelism is accepted and ignored. At
// n = 2²⁴, where auto used to switch the dense engine to an intra-trial
// splitter sampler, every backend runs byte-identically with any value of
// the option and without it.
func TestParallelismIsNoOp(t *testing.T) {
	const n = 1 << 24
	states := []int8{1, -1, 0}
	counts := []int64{n/2 + n/20, n/2 - n/20 - 1000, 1000}
	// Approximate majority on int8 states, so the sequential engine's
	// agent array stays at 16 MB.
	rule := func(rec, sen int8, _ *rand.Rand) (int8, int8) {
		switch {
		case rec == 1 && sen == -1, rec == -1 && sen == 1:
			return 0, sen
		case rec == 0 && sen != 0:
			return sen, sen
		}
		return rec, sen
	}
	// fingerprint pins the engine's full state: the snapshot of a
	// multiset engine, the rng state and configuration of the sequential
	// one (whose snapshot would spell out all n agents).
	fingerprint := func(e Engine[int8]) string {
		if s, ok := e.(*Sim[int8]); ok {
			rng, err := s.pcg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			c := s.Counts()
			return fmt.Sprint(s.Interactions(), rng, c[1], c[-1], c[0])
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, bk := range []Backend{Auto, Sequential, Batched, Dense} {
		t.Run(bk.String(), func(t *testing.T) {
			run := func(extra ...Option) string {
				e := NewEngineFromCounts(states, counts, rule, append([]Option{WithSeed(3), WithBackend(bk)}, extra...)...)
				e.Run(1 << 18)
				return fingerprint(e)
			}
			want := run()
			for _, par := range []int{0, 1, 8} {
				if got := run(WithParallelism(par)); got != want {
					t.Errorf("WithParallelism(%d) changed the trajectory", par)
				}
			}
		})
	}
}
