package stats

import (
	"fmt"
	"math"
)

// The Welch-tolerance comparison shared by the statistical test suites
// (cross-backend equivalence, churn removal marginals, hypergeometric
// moment checks). The engines consume randomness differently per
// backend, so trajectories cannot be compared run-by-run; instead the
// suites run many seeded trials per variant and
// require the metric means to agree within a few standard errors plus a
// small absolute slack — loose enough for fixed seeds to pass
// deterministically, tight enough to catch systematic bias. This package
// deliberately depends on nothing in the repository so that pop's own
// in-package tests can use it without an import cycle.

// WelchAgree compares two samples' means with the Welch-style tolerance
// nSE·SE + absSlack, where SE = √(s_a²/n_a + s_b²/n_b) is the unpooled
// (Welch) standard error of the mean difference. It returns nil when the
// means agree and a descriptive error otherwise (or when either sample is
// empty, which no tolerance can excuse).
func WelchAgree(ref, got []float64, nSE, absSlack float64) error {
	if len(ref) == 0 || len(got) == 0 {
		return fmt.Errorf("welch: empty sample (ref %d values, got %d)", len(ref), len(got))
	}
	sa, sb := Summarize(ref), Summarize(got)
	se := math.Sqrt(sa.Std*sa.Std/float64(sa.N) + sb.Std*sb.Std/float64(sb.N))
	tol := nSE*se + absSlack
	if d := math.Abs(sa.Mean - sb.Mean); d > tol || math.IsNaN(d) {
		return fmt.Errorf("means differ: %.4f vs %.4f (|Δ|=%.4f > tol %.4f)",
			sa.Mean, sb.Mean, d, tol)
	}
	return nil
}

// MeanNear is the one-sample counterpart for estimators with a known
// expectation: it returns nil when |got − want| ≤ tol + absSlack and a
// descriptive error otherwise. Callers pass tol = nSE·SE with their
// analytically derived standard error.
func MeanNear(got, want, tol, absSlack float64) error {
	d := math.Abs(got - want)
	if d > tol+absSlack || math.IsNaN(d) {
		return fmt.Errorf("mean %.4f, want %.4f ± %.4f (|Δ|=%.4f)", got, want, tol+absSlack, d)
	}
	return nil
}
