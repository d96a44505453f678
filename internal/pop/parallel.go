// Deterministic intra-trial parallelism: divide-and-conquer batch
// sampling.
//
// # Why a splitter
//
// RunTrials parallelism helps sweeps, but a single n = 10⁸–10⁹ trial
// still advances on one core. DenseSim's hot work — drawing the
// receiver and sender compositions as multivariate hypergeometric
// samples, distributing the sender block over receiver rows — all
// factorizes recursively: a draw of m items from a class range splits
// into left/right halves with one univariate hypergeometric per node
// (the left half's share is Hyp(total, leftTotal, m)), after which the
// two subtrees are conditionally independent and can run on different
// cores.
//
// The splitter is DenseSim's alone. BatchSim always runs its serial
// samplers and ignores WithParallelism: at the paper's own workload
// (Log-Size-Estimation at n = 10⁴) a batch splitter ran ~30% slower per
// interaction than the serial path, and it bought no speed at larger n.
//
// # Node-path seeding
//
// Parallel determinism comes from *where randomness lives*, not from
// execution order: every tree node derives its own PCG stream from a
// TrialSeed-style SplitMix64 hash of (draw seed, node path) — the path
// being the node's heap index (root 1, children 2p and 2p+1) — never
// from worker identity or scheduling. A batch draws one word from the
// engine's main stream as the draw seed; everything below is a pure
// function of that word, so `-par 1` and `-par 16` produce byte-identical
// trajectories and the number of workers (or whether subtrees run inline
// or on goroutines) cannot influence a single sample.
//
// # Worker budget
//
// Fan-out is fork-join per parallel region, bounded by effectiveWorkers:
// the engine's parallelism target capped by GOMAXPROCS divided by the
// number of concurrently active RunTrials workers, so trial-level and
// intra-trial parallelism compose without oversubscription (a sweep of W
// trial workers each running a -par P engine schedules ~GOMAXPROCS
// goroutines, not W·P). Because results are worker-count independent,
// the budget can adapt at runtime without affecting reproducibility.
package pop

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// parAutoMinN is the population size above which auto parallelism
// (WithParallelism(0), the default) switches DenseSim to the
// divide-and-conquer sampling path with a GOMAXPROCS worker target.
// Below it batches are short enough that the legacy serial samplers win;
// the cutoff depends only on n, so auto-resolved runs are reproducible
// across machines with different core counts.
const parAutoMinN = 1 << 24

// resolveParallelism turns the WithParallelism option into DenseSim's
// sampling mode: 0 keeps the legacy serial samplers, p >= 1 selects the
// node-seeded splitter path with a worker target of p. The resolution is
// fixed at construction (churn does not re-resolve it), so a trajectory's
// sampling algorithm never changes mid-run.
func resolveParallelism(par, n int) int {
	if par > 0 {
		return par
	}
	if n >= parAutoMinN {
		return runtime.GOMAXPROCS(0)
	}
	return 0
}

// activeTrialWorkers counts RunTrials workers currently running, the
// denominator of the intra-trial worker budget.
var activeTrialWorkers atomic.Int64

// effectiveWorkers caps an engine's parallelism target so that the
// product of trial-level and intra-trial workers stays at GOMAXPROCS.
func effectiveWorkers(par int) int {
	return effectiveWorkersFor(par, runtime.GOMAXPROCS(0), int(activeTrialWorkers.Load()))
}

// effectiveWorkersFor is the pure capping rule: par bounded by
// maxprocs/trialWorkers (at least 1). Exposed as a function of its inputs
// for direct unit testing.
func effectiveWorkersFor(par, maxprocs, trialWorkers int) int {
	if par <= 1 {
		return 1
	}
	if trialWorkers < 1 {
		trialWorkers = 1
	}
	budget := maxprocs / trialWorkers
	if budget < 1 {
		budget = 1
	}
	return min(par, budget)
}

// parGroup bounds one parallel region's fan-out: at most workers-1 extra
// goroutines run concurrently (a finished fork returns its slot, so deep
// recursions stay load-balanced without unbounded goroutine counts). A
// nil *parGroup runs everything inline — the serial execution of the
// identical algorithm.
type parGroup struct {
	extra atomic.Int64
	wg    sync.WaitGroup
}

// newParGroup returns a group allowing the given total worker count, or
// nil when workers <= 1 (inline execution).
func newParGroup(workers int) *parGroup {
	if workers <= 1 {
		return nil
	}
	g := &parGroup{}
	g.extra.Store(int64(workers - 1))
	return g
}

// fork runs f on a new goroutine when a worker slot is free, inline
// otherwise. Callers must wait() before reading anything f writes.
func (g *parGroup) fork(f func()) {
	if g != nil {
		for {
			free := g.extra.Load()
			if free <= 0 {
				break
			}
			if g.extra.CompareAndSwap(free, free-1) {
				g.wg.Add(1)
				go func() {
					defer g.wg.Done()
					defer g.extra.Add(1)
					f()
				}()
				return
			}
		}
	}
	f()
}

// wait blocks until every forked goroutine of the region finished.
func (g *parGroup) wait() {
	if g != nil {
		g.wg.Wait()
	}
}

// deriveSeed gives each draw within a batch its own seed domain, so the
// receiver, sender and pairing trees of one batch never share a node
// stream.
func deriveSeed(seed, domain uint64) uint64 {
	return splitmix64(seed ^ domain*0x9e3779b97f4a7c15)
}

// nodeRand is the splitter's only randomness source: a PCG stream seeded
// by the SplitMix64 avalanche of (draw seed, node path). Two distinct
// paths yield uncorrelated streams, and a node's stream is independent
// of which worker executes it.
func nodeRand(seed, path uint64) *rand.Rand {
	h := splitmix64(seed ^ splitmix64(path))
	return rand.New(rand.NewPCG(h, splitmix64(h)))
}

// Granularity knobs of the splitter path. They are vars so the tests can
// shrink them and exercise deep recursion and real fan-out at test-scale
// populations; production never mutates them. parMinForkItems only
// schedules work — any value yields the identical trajectory — while
// mvhLeafClasses and splitLeafMass decide where node streams are
// consumed, so they must be held fixed across runs being compared for
// byte-identity.
var (
	// mvhLeafClasses: composition-splitter nodes covering at most this
	// many classes draw their chain sequentially with the node's stream
	// instead of splitting further.
	mvhLeafClasses = 16
	// parMinForkItems: a subtree is forked to another worker only when
	// its sample is at least this large; smaller subtrees run inline
	// (goroutine handoff would cost more than the draw).
	parMinForkItems int64 = 1 << 11
	// splitLeafMass: the dense row splitter stops bisecting once a node's
	// receiver mass is at most this and runs the legacy-style sequential
	// multi-row chain under the node's stream. Bisection redistributes
	// the same items at every level (O(R·depth) descents), so leaves must
	// carry enough mass that the tree stays shallow; like the other leaf
	// knobs this one decides where node streams are consumed and must be
	// held fixed across runs compared for byte-identity.
	splitLeafMass int64 = 1 << 11
)

// fenwickPool recycles the node-local Fenwick trees behind chainTail:
// splitter nodes run concurrently, so they cannot share an engine's
// scratch tree the way the legacy serial chains do.
var fenwickPool = sync.Pool{New: func() any { return new(fenwick) }}

// int64Pool recycles the splitter nodes' per-node count vectors — sender
// shares and leaf-local post multisets. Nodes run concurrently, so they
// cannot share an engine-owned scratch slice the way the legacy serial
// chains do, and allocating one per node made the allocator a measurable
// per-batch cost of the dense pairing path.
// getInts returns a zeroed length-n slice along with its pool pointer;
// the pointer must go back via int64Pool.Put exactly once, after the
// slice's last use — the splitter nodes hand ownership down to whichever
// subtree consumes the buffer.
var int64Pool = sync.Pool{New: func() any { return new([]int64) }}

func getInts(n int) (*[]int64, []int64) {
	p := int64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	} else {
		s := (*p)[:n]
		clear(s)
		*p = s
	}
	return p, *p
}

// chainTail finishes a composition chain the way the legacy samplers do
// (see sampleSlotsByState): once every remaining class expects only a few
// items, the remaining m draws fall back to one weighted descent each
// over the class suffix src[i0:end] (total remaining weight rem), costing
// O(suffix + m·log suffix) instead of one hypergeometric per class. add
// is invoked once per drawn item with the absolute class index; src is
// not mutated (the tree keeps its own weights), so concurrent nodes may
// share a read-only src.
func chainTail(r *rand.Rand, src []int64, i0, end int, rem, m int64, add func(i int, k int64)) {
	tree := fenwickPool.Get().(*fenwick)
	tree.reset(src[i0:end])
	for ; m > 0; m-- {
		i := i0 + tree.findAndDec(r.Int64N(rem))
		rem--
		add(i, 1)
	}
	fenwickPool.Put(tree)
}

// mvhSplitComp draws dst[lo:hi] = the per-class composition of a uniform
// without-replacement sample of size m from counts[lo:hi] (whose total is
// total), recursively: one hypergeometric per node decides the left class
// half's share, subtrees recurse independently under node-path-derived
// streams, and ranges of at most mvhLeafClasses classes run the plain
// chain. cum is the exclusive prefix-sum array of counts (cum[i] =
// Σ counts[:i]), shared read-only across workers; dst[lo:hi] must be
// zeroed. The result is distributed exactly as the sequential chain —
// multivariate hypergeometric draws factorize over any class partition —
// and is a pure function of (seed, counts), independent of worker count.
func mvhSplitComp(g *parGroup, seed, path uint64, counts, cum []int64, lo, hi int, total, m int64, dst []int64) {
	for {
		switch {
		case m == 0:
			return
		case m == total:
			// Forced: every remaining member of the range is sampled.
			for i := lo; i < hi; i++ {
				dst[i] = counts[i]
			}
			return
		case int64(hi-lo) > int64(mvhLeafClasses) && m < 2*int64(hi-lo):
			// Light node: fewer items than half the classes — per-item
			// descents beat both bisecting and a per-class chain.
			chainTail(nodeRand(seed, path), counts, lo, hi, total, m,
				func(i int, k int64) { dst[i] += k })
			return
		case hi-lo <= mvhLeafClasses:
			r := nodeRand(seed, path)
			rem := total
			for i := lo; i < hi && m > 0; i++ {
				c := counts[i]
				if c == 0 {
					continue
				}
				if lightDraw(c, m, batchHeavyMean, rem) && m < 2*int64(hi-i) {
					chainTail(r, counts, i, hi, rem, m,
						func(j int, k int64) { dst[j] += k })
					return
				}
				var k int64
				if rem == m {
					k = c
				} else {
					k = hypergeometric(r, rem, c, m)
				}
				rem -= c
				m -= k
				dst[i] = k
			}
			if m != 0 {
				panic("pop: composition splitter under-filled")
			}
			return
		}
		mid := (lo + hi) / 2
		leftTot := cum[mid] - cum[lo]
		kL := int64(0)
		if leftTot > 0 {
			kL = hypergeometric(nodeRand(seed, path), total, leftTot, m)
		}
		kR := m - kL
		lPath, rPath := 2*path, 2*path+1
		if g != nil && min(kL, kR) >= parMinForkItems {
			rTot, rHi := total-leftTot, hi
			g.fork(func() {
				mvhSplitComp(g, seed, rPath, counts, cum, mid, rHi, rTot, kR, dst)
			})
			hi, total, m, path = mid, leftTot, kL, lPath
			continue
		}
		// Tail-recurse into the larger half, recurse into the smaller.
		if kL >= kR {
			mvhSplitComp(g, seed, rPath, counts, cum, mid, hi, total-leftTot, kR, dst)
			hi, total, m, path = mid, leftTot, kL, lPath
		} else {
			mvhSplitComp(g, seed, lPath, counts, cum, lo, mid, leftTot, kL, dst)
			lo, total, m, path = mid, total-leftTot, kR, rPath
		}
	}
}

// removeCountsSplit is removeCountsChain's splitter form, used by
// DenseSim whenever the node-seeded sampling path is active: the
// leavers' composition is drawn by mvhSplitComp from (seed), then debited
// through debit in id order. One seed word fully determines the removal,
// so churn is byte-identical across worker counts.
func removeCountsSplit(workers int, seed uint64, counts []int64, total, k int64, debit func(id int32, d int64), comp, cum []int64) ([]int64, []int64) {
	q := len(counts)
	comp = resizeZero(comp, q)
	cum = prefixSums(cum, counts)
	var g *parGroup
	if k >= parMinForkItems {
		g = newParGroup(workers)
	}
	mvhSplitComp(g, seed, 1, counts, cum, 0, q, total, k, comp)
	g.wait()
	for id, d := range comp {
		if d > 0 {
			debit(int32(id), -d)
		}
	}
	return comp, cum
}

// prefixSums fills dst (reusing its backing array) with the exclusive
// prefix sums of counts: dst[i] = Σ counts[:i], len(dst) = len(counts)+1.
func prefixSums(dst, counts []int64) []int64 {
	if cap(dst) < len(counts)+1 {
		dst = make([]int64, len(counts)+1)
	}
	dst = dst[:len(counts)+1]
	dst[0] = 0
	for i, c := range counts {
		dst[i+1] = dst[i] + c
	}
	return dst
}
