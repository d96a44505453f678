package pop

import (
	"math"
	"math/rand/v2"
	"sort"
)

// runLengthTable samples the collision-free run length ℓ shared by both
// batched engines. After t collision-free interactions the next is
// collision-free with probability (n−2t)(n−2t−1)/(n(n−1)), so the
// survival probability after k collision-free pairs is the product
//
//	T[0] = 1,  T[k+1] = T[k]·a·(a−1)·invNN,  a = n−2k,  invNN = 1/(n(n−1)),
//
// and ℓ for a uniform u is the first k with T[k+1] <= u. The product
// depends only on n, so instead of re-multiplying it once per interaction
// (an O(ℓ) chain per batch, several times the cost of the rest of a dense
// batch) the engine keeps it: minSurv[k] = min(T[1..k+1]) is
// non-increasing, so the first k with minSurv[k] <= u — found by binary
// search — is exactly the first k with T[k+1] <= u even where rounding
// lets T rise (T[1] can round to ≥ 1). Every T is computed by the same float64 operations in the same
// order as the per-interaction chain, so the sampled ℓ is bit-for-bit the
// chain's and trajectories do not depend on the table.
//
// The table is derived state: built on the first draw, grown only when a
// draw's u falls below its last entry (never past that draw's pair cap),
// and rebuilt from scratch when n changes under churn. About 4.3·√n
// entries cover every u ≥ 2⁻⁵³, ~340 KB at n = 10⁸. It is not
// snapshotted; a restored engine rebuilds it on its first batch. Each
// engine owns its table, so concurrent trials share nothing.
type runLengthTable struct {
	n       int64     // population size the table was built for
	surv    float64   // T[len(minSurv)], the product to extend from
	minSurv []float64 // minSurv[k] = min(T[1..k+1])
}

// collisionFreeRun draws ℓ in O(log ℓ) plus amortized table growth. A cap
// (maxPairs ≥ 1) just ends the batch early with no collision interaction,
// which composes exactly. It consumes exactly one Float64 from rng.
func (t *runLengthTable) collisionFreeRun(rng *rand.Rand, n, maxPairs int64) (ell int64, collided bool) {
	u := rng.Float64()
	if t.n != n {
		t.n, t.surv, t.minSurv = n, 1, t.minSurv[:0]
	}
	for {
		lim := min(int64(len(t.minSurv)), maxPairs)
		k := sort.Search(int(lim), func(i int) bool { return t.minSurv[i] <= u })
		if int64(k) < lim {
			return int64(k), true
		}
		if lim == maxPairs {
			return maxPairs, false
		}
		t.grow(u, maxPairs)
	}
}

// grow extends the table until its last entry is at most u or it holds
// maxPairs entries.
func (t *runLengthTable) grow(u float64, maxPairs int64) {
	n := t.n
	invNN := 1 / (float64(n) * float64(n-1))
	m := math.Inf(1)
	if k := len(t.minSurv); k > 0 {
		m = t.minSurv[k-1]
	}
	surv := t.surv
	for ell := int64(len(t.minSurv)); ell < maxPairs && m > u; ell++ {
		a := float64(n - 2*ell)
		surv = surv * a * (a - 1) * invNN
		m = min(m, surv)
		t.minSurv = append(t.minSurv, m)
	}
	t.surv = surv
}
