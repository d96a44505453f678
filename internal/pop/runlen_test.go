package pop

import (
	"math"
	"math/rand/v2"
	"testing"
)

// collisionFreeRunLoop is the per-interaction inverse transform that
// runLengthTable replaced: one multiply chain step per collision-free
// interaction. It is the oracle the table must match bit for bit.
func collisionFreeRunLoop(rng *rand.Rand, n, maxPairs int64) (ell int64, collided bool) {
	u := rng.Float64()
	surv := 1.0
	invNN := 1 / (float64(n) * float64(n-1))
	for ell < maxPairs {
		a := float64(n - 2*ell)
		next := surv * a * (a - 1) * invNN
		if next <= u {
			return ell, true
		}
		surv = next
		ell++
	}
	return ell, false
}

// extremeSource is a PCG stream that periodically yields the words
// rand.Float64 maps to u = 0 and u = 2⁻⁵³, the draws that push the table
// furthest (u = 0 only stops once the survival product underflows).
type extremeSource struct {
	pcg   *rand.PCG
	calls int
}

func (s *extremeSource) Uint64() uint64 {
	s.calls++
	switch {
	case s.calls%97 == 0:
		return 0 // Float64 = 0
	case s.calls%89 == 0:
		return 1 << 11 // Float64 = 2⁻⁵³
	}
	return s.pcg.Uint64()
}

func newExtremeRand(seed uint64) *rand.Rand {
	return rand.New(&extremeSource{pcg: rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)})
}

// checkRunLength draws once from the table and once from the oracle on
// twin streams and fails on any difference.
func checkRunLength(t *testing.T, tab *runLengthTable, got, want *rand.Rand, n, maxPairs int64) {
	t.Helper()
	ell, collided := tab.collisionFreeRun(got, n, maxPairs)
	wEll, wCollided := collisionFreeRunLoop(want, n, maxPairs)
	if ell != wEll || collided != wCollided {
		t.Fatalf("n=%d maxPairs=%d: table gave (%d, %v), loop (%d, %v)", n, maxPairs, ell, collided, wEll, wCollided)
	}
}

// TestCollisionFreeRunMatchesLoop runs one table through many draws —
// population sizes changing between runs of draws, caps of 1, random and
// n/3+1, and the extreme uniforms u = 0 and u = 2⁻⁵³ — and requires every
// draw to equal the per-interaction loop's and to consume the same
// randomness.
func TestCollisionFreeRunMatchesLoop(t *testing.T) {
	pick := rand.New(rand.NewPCG(5, 6))
	got, want := newExtremeRand(7), newExtremeRand(7)
	var tab runLengthTable
	for run := 0; run < 3000; run++ {
		n := 8 + pick.Int64N(193)
		for draws := 1 + pick.IntN(40); draws > 0; draws-- {
			var maxPairs int64
			switch pick.IntN(3) {
			case 0:
				maxPairs = 1
			case 1:
				maxPairs = 1 + pick.Int64N(n/3+1)
			default:
				maxPairs = n/3 + 1
			}
			checkRunLength(t, &tab, got, want, n, maxPairs)
		}
	}
	// Large populations at the dense engine's cap, where u = 0 walks the
	// product through the subnormals down to zero.
	for _, n := range []int64{1_000_000, 100_000_000} {
		for i := 0; i < 300; i++ {
			checkRunLength(t, &tab, got, want, n, min(int64(denseMaxPairs), n/3+1))
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("streams diverged: table consumed different randomness (%#x vs %#x)", g, w)
	}
	// A draw only exposes a rounding difference when u falls between the
	// two roundings of one product, so also pin the entries themselves:
	// each must be the running minimum of the loop's products, bit for bit.
	n := tab.n
	invNN := 1 / (float64(n) * float64(n-1))
	surv, m := 1.0, math.Inf(1)
	for k, entry := range tab.minSurv {
		a := float64(n - 2*int64(k))
		surv = surv * a * (a - 1) * invNN
		m = min(m, surv)
		if entry != m {
			t.Fatalf("n=%d: table entry %d is %v, loop's running minimum %v", n, k, entry, m)
		}
	}
}

// FuzzCollisionFreeRun checks the table against the loop over (n,
// maxPairs, seed): a run of draws at n, then at a second size sharing the
// table, as churn does.
func FuzzCollisionFreeRun(f *testing.F) {
	f.Add(uint64(8), uint64(1), uint64(1))
	f.Add(uint64(1000), uint64(334), uint64(2))
	f.Add(uint64(1_000_000_000), uint64(1<<20), uint64(3))
	f.Fuzz(func(t *testing.T, nRaw, maxRaw, seed uint64) {
		n := 8 + int64(nRaw%(1<<32))
		maxPairs := 1 + int64(maxRaw%uint64(n/3+1))
		got, want := newExtremeRand(seed), newExtremeRand(seed)
		var tab runLengthTable
		for _, size := range []int64{n, 8 + n/2} {
			for i := 0; i < 16; i++ {
				checkRunLength(t, &tab, got, want, size, min(maxPairs, size/3+1))
			}
		}
	})
}

// BenchmarkCollisionFreeRun measures the ℓ draw alone, at the dense
// engine's cap, reporting ns per draw and ns per simulated interaction.
// The table is warmed before the timer starts, so the figures are the
// steady-state search cost.
func BenchmarkCollisionFreeRun(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int64
	}{{"n1e4", 1e4}, {"n1e6", 1e6}, {"n1e8", 1e8}, {"n1e9", 1e9}} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(rand.NewPCG(1, uint64(c.n)))
			maxPairs := min(int64(denseMaxPairs), c.n/3+1)
			var tab runLengthTable
			for i := 0; i < 1000; i++ {
				tab.collisionFreeRun(r, c.n, maxPairs)
			}
			var interactions int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ell, _ := tab.collisionFreeRun(r, c.n, maxPairs)
				interactions += ell
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/draw")
			b.ReportMetric(ns/float64(max(interactions, 1)), "ns/interaction")
		})
	}
}
