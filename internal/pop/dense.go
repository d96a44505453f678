// DenseSim: the count-vector simulation backend.
//
// # Representation
//
// Like BatchSim, DenseSim stores the configuration as interned state
// counts — but it never materializes agents at any point: not at
// construction (NewDenseFromCounts accepts the multiset directly), not
// inside a batch (participants are advanced as a matrix of state-pair
// counts rather than a slot array), and not under live-state pressure
// (it delegates to a counts-constructed BatchSim instead of falling back
// to an agent array itself). Its memory footprint is O(q) for q live
// states, which is what makes n = 10⁹–10¹⁰ populations feasible for this
// paper's dense protocols: after the initial epidemic the number of
// distinct states is polylog(n), so the whole configuration is a few
// kilobytes regardless of n.
//
// # Pair-matrix batches
//
// Batches reuse BatchSim's collision-free framing (arXiv:2005.03584): the
// run length ℓ until the scheduler first reuses an agent depends only on
// n, and the 2ℓ participants are a uniform without-replacement sample of
// the population. DenseSim exploits the exchangeability one step further,
// in the spirit of the count-vector dynamics of Berenbrink, Kaaser &
// Radzik (arXiv:1905.11962): instead of materializing 2ℓ slots and
// shuffling, it draws the ℓ receiver states as a multivariate
// hypergeometric sample of the counts vector, the ℓ sender states as a
// second such sample from the remainder, and then the uniformly random
// receiver↔sender matching as one multivariate hypergeometric row per
// receiver state over the sender multiset. The result is the matrix
// C[a][b] of ordered state-pair interaction counts for the batch, drawn
// from exactly the distribution the agent-level scheduler induces — a
// deterministic transition (a,b) → (a',b') is then applied once per pair
// with multiplicity C[a][b], and only transitions that consume randomness
// degrade to per-pair rule draws. The collision interaction that ends a
// batch is resolved exactly as in BatchSim, with the slot array replaced
// by the participants' post-state multiset. Per-batch work is O(q·H) for
// the two participant samples plus O(nonzero matrix cells) ≤ O(q²) for
// the pairing — independent of ℓ for concentrated configurations — and
// the trajectory is distributed identically to the sequential engine's,
// up to float64 rounding in the inverse-transform samplers.
//
// # Delegation
//
// The pair matrix stops paying once q² work rivals the ~√n batch length —
// precisely the regime BatchSim's per-slot sampling is built for. DenseSim
// reuses the batch backend's live-state heuristic: above the dense
// threshold (default ~√n/6, see WithDenseThreshold) it hands the current
// counts to an internal BatchSim via NewBatchFromCounts and forwards to it,
// re-entering dense mode once the configuration re-concentrates below half
// the threshold. The transition cache, interning and compaction machinery
// mirror batch.go (see its package comment); the same Rule purity contract
// applies.
package pop

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// DenseStats reports how a DenseSim run was executed; it is diagnostic
// only (exposed for tests, benchmarks and tuning).
type DenseStats struct {
	// Batches is the number of pair-matrix batches processed.
	Batches int64
	// BatchedInteractions counts interactions simulated through the pair
	// matrix (including their collision steps).
	BatchedInteractions int64
	// DelegatedInteractions counts interactions executed by the internal
	// BatchSim while the live-state count exceeded the dense threshold.
	DelegatedInteractions int64
	// Delegations / Reentries count dense→batch and batch→dense mode
	// switches.
	Delegations int64
	Reentries   int64
	// PairCells counts nonzero cells of the sampled pair matrices — the
	// q²-shaped part of the work.
	PairCells int64
	// CacheHits counts interactions served from the deterministic-
	// transition cache (with multiplicity); RuleCalls counts actual rule
	// invocations. TableHits counts interactions resolved by the
	// declared-table bypass (WithTable), which skips both.
	CacheHits int64
	RuleCalls int64
	TableHits int64
	// Compactions counts interning-table rebuilds.
	Compactions int64
}

const (
	// denseMaxPairs caps a single pair-matrix batch's length. Dense
	// batches have no per-slot scratch, so the cap only bounds the
	// run-length table (see runLengthTable), which a draw extends only as
	// far as its uniform needs; it binds well above the natural Θ(√n)
	// collision point for every feasible n.
	denseMaxPairs = 1 << 20
	// denseCacheBits sizes DenseSim's direct-mapped transition cache.
	// Dense mode runs only below the live-state threshold, so its hot
	// pair set is much smaller than BatchSim's.
	denseCacheBits = 16
	// denseRecheckFactor: while delegated, the inner engine's live-state
	// count is rechecked every denseRecheckFactor·n interactions to
	// decide on re-entering dense mode.
	denseRecheckFactor = 2
	// denseHeavyCell: a pairing-row cell expecting at least this many
	// partners is drawn with its own hypergeometric; lighter cells are
	// cheaper as individual Fenwick descents (a light hypergeometric draw
	// costs about three tree descents).
	denseHeavyCell = 3
)

// defaultDenseThreshold sizes the live-state delegation cutoff for a
// population of n agents: dense batches cost O(q) chain draws against the
// slot backend's Θ(ℓ) per-slot work, with ℓ ≈ 0.63√n the expected
// collision-free run length, so the crossover scales with √n. The
// constant is conservative (chain draws are several times the cost of a
// slot write) and the result is clamped to BatchSim's own threshold
// regime.
func defaultDenseThreshold(n int) int {
	q := int(0.627 * math.Sqrt(float64(n)) / 4)
	return min(max(q, 64), 2048)
}

// DenseSim is the count-vector engine. See the file comment for the
// algorithm. It is not safe for concurrent use; run independent trials on
// independent values (e.g. via RunTrials).
type DenseSim[S comparable] struct {
	pcg      *rand.PCG // rng's source, retained for snapshotting
	rng      *rand.Rand
	ruleRand *countingSource
	ruleRng  *rand.Rand
	rule     Rule[S]
	n        int

	// interactsBase counts interactions executed outside the current
	// delegation; while delegated, the inner engine's own counter is
	// added on top (and folded in at re-entry).
	interactsBase int64

	// Per-segment parallel-time accounting (see Engine.Time). segStart is
	// measured on the delegation-inclusive Interactions() scale, which is
	// continuous across delegate/reenter.
	timeBase float64
	segStart int64

	// Interning, as in BatchSim.
	states   []S
	pos      map[S]int32
	counts   []int64
	total    int64
	live     int
	distinct int

	qMax           int // live-state delegation threshold
	qMaxOverride   int // WithDenseThreshold value (0 = rescale qMax with n on churn)
	batchThreshold int // forwarded to the delegated BatchSim (0 = default)

	cache    []cacheSlot
	cacheGen uint64

	// Declared-table bypass (WithTable), as in BatchSim; forwarded to
	// delegated engines.
	tbl *tableView[S]

	// Delegation state. innerBaseDistinct is the inner engine's distinct
	// count at hand-off (states it started with, already counted here).
	inner             *BatchSim[S]
	innerBaseDistinct int
	innerRecheck      int64

	runLen runLengthTable // ℓ sampler, derived from n (see runlen.go)

	// Batch scratch: receiver counts and the participants' post-state
	// multiset, both indexed by state id. post can grow during a batch as
	// rule outputs intern new states.
	tree fenwick
	recv []int64
	post []int64

	// test hooks (nil/false in production)
	forceNoDelegate bool
	batchEvents     func(ell int, collided bool)

	stats DenseStats
}

// NewDense constructs a count-vector simulator; the arguments mirror New.
// It panics if WithInteractionCounts was requested (the multiset
// representation has no agent identities).
func NewDense[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) *DenseSim[S] {
	validatePopSize(int64(n))
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	d := newDenseShell[S](rule, o)
	d.n = n
	d.qMax = denseThresholdFor(o, n)
	for i := 0; i < n; i++ {
		d.addCount(d.intern(initial(i, d.rng)), 1)
	}
	d.compact()
	return d
}

// NewDenseFromCounts constructs a count-vector simulator directly from a
// configuration multiset given as parallel slices: states[i] is held by
// counts[i] agents (zero-count entries are skipped, duplicate states
// accumulate). No agent-sized allocation of any kind occurs, so this is
// the constructor of choice for populations far beyond memory — a
// three-state configuration of 10¹⁰ agents costs the same as one of 10³.
func NewDenseFromCounts[S comparable](states []S, counts []int64, rule Rule[S], opts ...Option) *DenseSim[S] {
	n := int(validateCounts(states, counts))
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	d := newDenseShell[S](rule, o)
	for i, c := range counts {
		if c > 0 {
			d.addCount(d.intern(states[i]), c)
		}
	}
	d.n = n
	d.qMax = denseThresholdFor(o, n)
	d.compact()
	return d
}

// newDenseShell builds a DenseSim with everything but its initial
// configuration and size-derived threshold.
func newDenseShell[S comparable](rule Rule[S], o options) *DenseSim[S] {
	if rule == nil {
		panic("pop: nil rule")
	}
	if o.trackInteractions {
		panic("pop: the dense backend cannot track per-agent interaction counts; use WithBackend(Sequential)")
	}
	pcg := rand.NewPCG(o.seed, o.seed^0x9e3779b97f4a7c15)
	cs := &countingSource{src: pcg}
	tbl := attachTable[S](o)
	d := &DenseSim[S]{
		pcg:            pcg,
		rng:            rand.New(pcg),
		ruleRand:       cs,
		ruleRng:        rand.New(cs),
		rule:           rule,
		pos:            make(map[S]int32, posSizeFor(tbl)),
		tbl:            tbl,
		qMaxOverride:   o.denseThreshold,
		batchThreshold: o.batchThreshold,
	}
	d.cache = make([]cacheSlot, 1<<denseCacheBits)
	d.cacheGen = 1
	return d
}

func denseThresholdFor(o options, n int) int {
	if o.denseThreshold > 0 {
		return o.denseThreshold
	}
	return defaultDenseThreshold(n)
}

// intern returns the dense id of state s, assigning one if new. As in
// BatchSim, compaction drops dead states from the table, so a state that
// dies and later reappears is counted again by DistinctStates.
func (d *DenseSim[S]) intern(s S) int32 {
	if id, ok := d.pos[s]; ok {
		return id
	}
	id := int32(len(d.states))
	d.states = append(d.states, s)
	d.counts = append(d.counts, 0)
	d.pos[s] = id
	d.distinct++
	if d.tbl != nil {
		d.tbl.noteIntern(s, id)
	}
	return id
}

// addCount adjusts counts[id] by delta, maintaining the live-state count
// and the conservation total.
func (d *DenseSim[S]) addCount(id int32, delta int64) {
	c := d.counts[id]
	nc := c + delta
	if nc < 0 {
		panic("pop: DenseSim state count went negative")
	}
	d.counts[id] = nc
	d.total += delta
	if c == 0 && nc > 0 {
		d.live++
	} else if c > 0 && nc == 0 {
		d.live--
	}
}

// N returns the population size.
func (d *DenseSim[S]) N() int { return d.n }

// Interactions returns the number of interactions executed so far.
func (d *DenseSim[S]) Interactions() int64 {
	if d.inner != nil {
		return d.interactsBase + d.inner.Interactions()
	}
	return d.interactsBase
}

// Time returns the parallel time elapsed, accumulated per churn segment
// (see Engine.Time); on a fixed population it equals interactions / n.
func (d *DenseSim[S]) Time() float64 {
	return d.timeBase + float64(d.Interactions()-d.segStart)/float64(d.n)
}

// beginSegment folds the current churn segment into timeBase before a
// population-size change. Interactions() is continuous across delegation
// and re-entry, so the segment boundary is well defined in either mode.
func (d *DenseSim[S]) beginSegment() {
	i := d.Interactions()
	d.timeBase += float64(i-d.segStart) / float64(d.n)
	d.segStart = i
}

// rescaleThreshold re-derives the √n-scaled delegation threshold after a
// population-size change (a WithDenseThreshold override stays fixed).
func (d *DenseSim[S]) rescaleThreshold() {
	if d.qMaxOverride > 0 {
		return
	}
	d.qMax = defaultDenseThreshold(d.n)
}

// AddAgents adds k agents in state st (a join event): one count edit in
// dense mode, forwarded to the inner BatchSim while delegated.
func (d *DenseSim[S]) AddAgents(st S, k int) {
	checkJoin(d.n, k)
	if k == 0 {
		return
	}
	d.beginSegment()
	if d.inner != nil {
		d.inner.AddAgents(st, k)
	} else {
		d.addCount(d.intern(st), int64(k))
	}
	d.n += k
	d.rescaleThreshold()
}

// RemoveAgents removes k agents chosen uniformly at random without
// replacement (a leave event), refusing to shrink the population below 2.
// In dense mode the removed agents' states are a multivariate
// hypergeometric sample of the counts vector; while delegated the removal
// forwards to the inner BatchSim.
func (d *DenseSim[S]) RemoveAgents(k int) {
	checkRemoval(d.n, k)
	if k == 0 {
		return
	}
	d.beginSegment()
	if d.inner != nil {
		d.inner.RemoveAgents(k)
	} else {
		removeCountsChain(d.rng, &d.tree, d.counts, d.total, int64(k), d.addCount)
	}
	d.n -= k
	d.rescaleThreshold()
}

// DistinctStates returns the number of distinct states observed since the
// initial configuration, tracked intrinsically by interning (same
// re-appearance caveat as BatchSim, see intern).
func (d *DenseSim[S]) DistinctStates() int {
	if d.inner != nil {
		return d.distinct + d.inner.DistinctStates() - d.innerBaseDistinct
	}
	return d.distinct
}

// Stats returns execution diagnostics.
func (d *DenseSim[S]) Stats() DenseStats { return d.stats }

// LiveStates returns the number of distinct states currently present.
func (d *DenseSim[S]) LiveStates() int {
	if d.inner != nil {
		return d.inner.LiveStates()
	}
	return d.live
}

// Delegated reports whether the engine is currently forwarding to its
// internal BatchSim.
func (d *DenseSim[S]) Delegated() bool { return d.inner != nil }

// Counts returns the configuration vector.
func (d *DenseSim[S]) Counts() map[S]int {
	if d.inner != nil {
		return d.inner.Counts()
	}
	c := make(map[S]int, d.live)
	for id, cnt := range d.counts {
		if cnt > 0 {
			c[d.states[id]] = int(cnt)
		}
	}
	return c
}

// Count returns the number of agents satisfying pred.
func (d *DenseSim[S]) Count(pred func(S) bool) int {
	if d.inner != nil {
		return d.inner.Count(pred)
	}
	var k int64
	for id, cnt := range d.counts {
		if cnt > 0 && pred(d.states[id]) {
			k += cnt
		}
	}
	return int(k)
}

// All reports whether every agent satisfies pred.
func (d *DenseSim[S]) All(pred func(S) bool) bool {
	if d.inner != nil {
		return d.inner.All(pred)
	}
	for id, cnt := range d.counts {
		if cnt > 0 && !pred(d.states[id]) {
			return false
		}
	}
	return true
}

// Any reports whether at least one agent satisfies pred.
func (d *DenseSim[S]) Any(pred func(S) bool) bool {
	return !d.All(func(s S) bool { return !pred(s) })
}

// RunTime executes t units of parallel time (t·n interactions, rounded
// down).
func (d *DenseSim[S]) RunTime(t float64) {
	d.Run(int64(t * float64(d.n)))
}

// RunUntil has the semantics documented on Engine.RunUntil, shared with
// the other engines.
func (d *DenseSim[S]) RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	return runUntil[S](d, pred, checkEvery, maxTime)
}

// Step executes one interaction: an exact single-interaction multiset
// step, as in BatchSim. It costs O(q) and exists for API completeness —
// Run amortizes far better.
func (d *DenseSim[S]) Step() {
	if d.inner != nil {
		d.inner.Step()
		return
	}
	ra := d.drawLinear(d.rng.Int64N(int64(d.n)))
	d.addCount(ra, -1)
	rb := d.drawLinear(d.rng.Int64N(int64(d.n) - 1))
	d.addCount(rb, -1)
	d.post = resizeZero(d.post, len(d.states))
	d.applyCell(ra, rb, 1)
	for id, c := range d.post {
		if c > 0 {
			d.addCount(int32(id), c)
		}
	}
	d.interactsBase++
}

// drawLinear maps u ∈ [0, Σcounts) to a state id by linear scan.
func (d *DenseSim[S]) drawLinear(u int64) int32 {
	for id, c := range d.counts {
		if u < c {
			return int32(id)
		}
		u -= c
	}
	panic("pop: DenseSim draw out of range")
}

// Run executes k interactions.
func (d *DenseSim[S]) Run(k int64) {
	for k > 0 {
		if d.inner != nil {
			run := min(k, d.innerRecheck)
			d.inner.Run(run)
			d.stats.DelegatedInteractions += run
			d.innerRecheck -= run
			k -= run
			if d.innerRecheck <= 0 {
				if d.inner.LiveStates() <= d.qMax/2 {
					d.reenter()
				} else {
					d.innerRecheck = int64(denseRecheckFactor) * int64(d.n)
				}
			}
			continue
		}
		if d.live > d.qMax {
			d.delegate()
			continue
		}
		if k < 8 || d.n < 8 {
			d.Step()
			k--
			continue
		}
		if len(d.states) >= 4*d.live && len(d.states) >= 256 {
			d.compact()
		}
		k -= d.runBatch(k)
	}
}

// delegate hands the current configuration to an internal BatchSim — the
// analogue of BatchSim's own sequential fallback, one level up and still
// agent-free.
func (d *DenseSim[S]) delegate() {
	if d.forceNoDelegate {
		panic("pop: DenseSim delegated to BatchSim with forceNoDelegate set")
	}
	opts := []Option{WithSeed(d.rng.Uint64())}
	if d.batchThreshold > 0 {
		opts = append(opts, WithBatchThreshold(d.batchThreshold))
	}
	if d.tbl != nil {
		opts = append(opts, WithTable(d.tbl.c))
	}
	d.inner = NewBatchFromCounts(d.states, d.counts, d.rule, opts...)
	d.innerBaseDistinct = d.inner.DistinctStates()
	d.innerRecheck = int64(denseRecheckFactor) * int64(d.n)
	d.stats.Delegations++
}

// reenter pulls the configuration back from the delegated BatchSim and
// resumes pair-matrix batching.
func (d *DenseSim[S]) reenter() {
	in := d.inner
	if in.seqMode {
		in.recountFromAgents()
	}
	d.interactsBase += in.Interactions()
	d.distinct += in.DistinctStates() - d.innerBaseDistinct
	// Rebuild the interning tables from the inner engine's live states in
	// its (deterministic) id order; ids change, so invalidate the cache.
	states := make([]S, 0, in.live)
	counts := make([]int64, 0, in.live)
	pos := make(map[S]int32, 2*in.live)
	var total int64
	for id, c := range in.counts {
		if c > 0 {
			nid := int32(len(states))
			pos[in.states[id]] = nid
			states = append(states, in.states[id])
			counts = append(counts, c)
			total += c
		}
	}
	d.states, d.counts, d.pos = states, counts, pos
	d.total = total
	d.live = len(states)
	d.inner = nil
	d.invalidateCache()
	d.compact()
	d.stats.Reentries++
}

// invalidateCache makes every existing cache entry unmatchable by
// advancing the generation (clearing the table on the rare wrap, so no
// pre-wrap entry can alias a post-wrap key).
func (d *DenseSim[S]) invalidateCache() {
	d.cacheGen = advanceCacheGen(d.cache, d.cacheGen)
}

// resizeZero returns s with length n and every element zero, reusing its
// backing array when possible.
func resizeZero(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// runBatch simulates one pair-matrix batch (plus its collision
// interaction, if one was sampled) of at most kmax interactions, and
// returns how many interactions it executed.
func (d *DenseSim[S]) runBatch(kmax int64) int64 {
	n := int64(d.n)
	// Collision-free run length ℓ (see runLengthTable); a cap just ends
	// the batch early with no collision interaction.
	maxPairs := min(int64(denseMaxPairs), kmax, n/3+1)
	ell, collided := d.runLen.collisionFreeRun(d.rng, n, maxPairs)
	if ell == 0 {
		// Only possible when a cap degenerated; fall back to one exact step.
		d.Step()
		return 1
	}

	// Receiver states: a multivariate hypergeometric sample of the
	// (debited) counts vector. Senders are then drawn row by row from the
	// remaining population inside pairAndApply — jointly equivalent, by
	// exchangeability, to drawing 2ℓ agents without replacement and
	// pairing them at random.
	q := len(d.counts)
	d.recv = resizeZero(d.recv, q)
	d.post = resizeZero(d.post, q)
	d.sampleParticipants(d.recv, ell)
	d.pairAndApply(ell)

	done := ell
	if collided {
		d.collisionStep(2 * ell)
		done++
	}

	// Commit participants' post states.
	for id, c := range d.post {
		if c > 0 {
			d.addCount(int32(id), c)
		}
	}
	d.interactsBase += done
	d.stats.Batches++
	d.stats.BatchedInteractions += done
	if d.total != n {
		panic(fmt.Sprintf("pop: DenseSim conservation violated: %d agents after batch, want %d", d.total, n))
	}
	if d.batchEvents != nil {
		d.batchEvents(int(ell), collided)
	}
	return done
}

// cacheProbe is the read-only transition-cache lookup: it reports the
// cached deterministic outputs of the ordered id pair under the given
// generation, with BatchSim's key layout (see cacheSlot).
func cacheProbe(cache []cacheSlot, bits uint, gen uint64, ida, idb int32) (oa, ob int32, ok bool) {
	if ida >= cacheMaxID || idb >= cacheMaxID {
		return 0, 0, false
	}
	key := gen<<44 | uint64(ida)<<22 | uint64(idb)
	s := cache[cacheIndex(key, bits)]
	if s.key != key {
		return 0, 0, false
	}
	return int32(s.out >> 32), int32(s.out & math.MaxUint32), true
}

// cacheStore is cacheProbe's write half: it records (oa, ob) as the
// deterministic outputs of the ordered id pair under the given
// generation, evicting whatever shared the slot. Pairs with an id at or
// beyond cacheMaxID are not packable and are silently skipped.
func cacheStore(cache []cacheSlot, bits uint, gen uint64, ida, idb, oa, ob int32) {
	if ida >= cacheMaxID || idb >= cacheMaxID {
		return
	}
	key := gen<<44 | uint64(ida)<<22 | uint64(idb)
	cache[cacheIndex(key, bits)] = cacheSlot{key: key, out: uint64(uint32(oa))<<32 | uint64(uint32(ob))}
}

// cacheIndex maps a cache key to its slot among 1<<bits. The key packs
// two small ids linearly, and a single multiplicative hash maps such keys
// onto a lattice: 135×135 id pairs landed in 4071 of 2¹⁶ slots, evicting
// each other on every probe. An xor-shift and a second multiply spread
// them like random keys (15944 slots, the random expectation).
func cacheIndex(key uint64, bits uint) uint64 {
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return (h * 0x9e3779b97f4a7c15) >> (64 - bits)
}

// advanceCacheGen returns the generation after gen, making every entry
// stored under gen or earlier unmatchable. The generation field is 20
// bits; on the rare wrap it clears the table (so no pre-wrap entry can
// alias a post-wrap key) and restarts at 1.
func advanceCacheGen(cache []cacheSlot, gen uint64) uint64 {
	if gen+1 >= 1<<20 {
		clear(cache)
		return 1
	}
	return gen + 1
}

// carryCache re-keys the entries stored under oldGen to gen through an
// interning compaction's remap (old id → new id, -1 if dead), dropping
// any entry that touches a dead id, so the hot transitions survive a
// compaction instead of costing a rule call each to re-derive. After a
// wrap (gen == 1) the table is already clear and nothing is carried.
func carryCache(cache []cacheSlot, bits uint, oldGen, gen uint64, remap []int32) {
	if gen == 1 {
		return
	}
	for _, s := range cache {
		if s.key == 0 || s.key>>44 != oldGen {
			continue
		}
		a, c := int32(s.key>>22)&(cacheMaxID-1), int32(s.key)&(cacheMaxID-1)
		oa, ob := int32(s.out>>32), int32(s.out&math.MaxUint32)
		if int(a) >= len(remap) || int(c) >= len(remap) || int(oa) >= len(remap) || int(ob) >= len(remap) {
			continue
		}
		na, nc, noa, nob := remap[a], remap[c], remap[oa], remap[ob]
		if na < 0 || nc < 0 || noa < 0 || nob < 0 {
			continue
		}
		cacheStore(cache, bits, gen, na, nc, noa, nob)
	}
}

// sampleParticipants draws a uniform without-replacement sample of m
// agents as per-state counts into dst (zeroed, len ≥ len(counts)),
// debiting the configuration. It is the multivariate hypergeometric
// chain of hypergeom.go inlined against addCount so the live-state and
// conservation bookkeeping stay exact — with BatchSim's heavy/light
// split: hypergeometric draws only while a state expects a material
// share of the sample, per-draw Fenwick descents over the suffix for
// the light tail (one cheap draw per sampled agent instead of one
// expensive draw per live state).
func (d *DenseSim[S]) sampleParticipants(dst []int64, m int64) {
	remPop := d.total
	for id := 0; id < len(d.counts) && m > 0; id++ {
		c := d.counts[id]
		if c == 0 {
			continue
		}
		// Counts are compaction-ordered descending, so once the current
		// state's expected draw is light every later one is lighter: the
		// remaining m agents cost m·log q via the suffix tree, skipping
		// the untouched tail entirely. The suffix conditions correctly —
		// slots already allocated went to earlier states, and the chain
		// factorizes in id order.
		if lightDraw(c, m, batchHeavyMean, remPop) && m < 2*int64(len(d.counts)-id) {
			d.tree.reset(d.counts[id:])
			for ; m > 0; m-- {
				sid := int32(id + d.tree.findAndDec(d.rng.Int64N(remPop)))
				remPop--
				d.addCount(sid, -1)
				dst[sid]++
			}
			break
		}
		var k int64
		if remPop == m {
			k = c // forced: every remaining agent participates
		} else {
			k = hypergeometric(d.rng, remPop, c, m)
		}
		remPop -= c
		m -= k
		if k > 0 {
			d.addCount(int32(id), -k)
			dst[id] = k
		}
	}
	if m != 0 {
		panic("pop: DenseSim participant sampling under-filled")
	}
}

// pairAndApply realizes the uniformly random receiver↔sender matching as
// the matrix of ordered state-pair counts and applies each cell with its
// multiplicity. Row a (the partners of the recv[a] receivers in state a)
// is a multivariate hypergeometric draw from the remaining population —
// drawing each row's senders directly from the undrawn pool is jointly
// identical to pre-drawing an ℓ-sender block and matching it uniformly,
// and skips that block's own sampling chain. Heavy row cells get one
// hypergeometric draw each; once cells turn light (counts are
// compaction-ordered descending, so lightness is monotone along the row)
// the remaining partners cost one Fenwick descent each over the whole
// remaining pool, the tree staying in sync with the chain's debits. For
// concentrated configurations rows exhaust within the first few sender
// states and the matrix work stays far below q².
func (d *DenseSim[S]) pairAndApply(ell int64) {
	d.tree.reset(d.counts)
	for a := 0; a < len(d.recv) && ell > 0; a++ {
		ra := d.recv[a]
		if ra == 0 {
			continue
		}
		ell -= ra
		remPop := d.total
		for bs := 0; bs < len(d.counts) && ra > 0; bs++ {
			c := d.counts[bs]
			if c == 0 {
				continue
			}
			if lightDraw(c, ra, denseHeavyCell, remPop) && ra < 2*int64(len(d.counts)-bs) {
				break
			}
			var k int64
			if remPop == ra {
				k = c // forced: every remaining agent partners this state
			} else {
				k = hypergeometric(d.rng, remPop, c, ra)
			}
			remPop -= c
			ra -= k
			if k > 0 {
				d.addCount(int32(bs), -k)
				d.tree.add(bs, -k)
				d.stats.PairCells++
				d.applyCell(int32(a), int32(bs), k)
			}
		}
		// The chain above has already fixed this row's allocation to the
		// states it walked, so the rest of the row is conditioned on the
		// remaining suffix: offsetting the descent past the prefix weight
		// (d.total − remPop, constant while the tail draws) restricts the
		// full tree to exactly that suffix.
		prefix := d.total - remPop
		for ; ra > 0; ra-- {
			bs := int32(d.tree.findAndDec(prefix + d.rng.Int64N(remPop)))
			remPop--
			d.addCount(bs, -1)
			d.stats.PairCells++
			d.applyCell(int32(a), bs, 1)
		}
	}
}

// applyCell advances mult ordered (receiver, sender) interactions of the
// state pair (ida, idb), accumulating outputs into the post multiset. A
// cached deterministic transition is applied in one shot; otherwise the
// rule runs once through the randomness-counting source, and if it
// consumed none the transition is a pure function of the pair (the Rule
// contract), so the remaining multiplicity shares its outputs — only
// genuinely randomized transitions pay one rule call per interaction.
func (d *DenseSim[S]) applyCell(ida, idb int32, mult int64) {
	if t := d.tbl; t != nil {
		if toa, tob, ok := t.probe(ida, idb); ok {
			d.stats.TableHits += mult
			// Receiver output interned first, as on the rule path, so
			// trajectories stay byte-identical (see batch.go applyPair).
			oa := t.engOf[toa]
			if oa < 0 {
				oa = d.intern(t.c.states[toa])
			}
			ob := t.engOf[tob]
			if ob < 0 {
				ob = d.intern(t.c.states[tob])
			}
			d.addPost(oa, mult)
			d.addPost(ob, mult)
			return
		}
	}
	if oa, ob, ok := cacheProbe(d.cache, denseCacheBits, d.cacheGen, ida, idb); ok {
		d.stats.CacheHits += mult
		d.addPost(oa, mult)
		d.addPost(ob, mult)
		return
	}
	for mult > 0 {
		before := d.ruleRand.words
		sa, sb := d.rule(d.states[ida], d.states[idb], d.ruleRng)
		d.stats.RuleCalls++
		oa, ob := d.intern(sa), d.intern(sb)
		if d.ruleRand.words == before {
			cacheStore(d.cache, denseCacheBits, d.cacheGen, ida, idb, oa, ob)
			d.addPost(oa, mult)
			d.addPost(ob, mult)
			return
		}
		d.addPost(oa, 1)
		d.addPost(ob, 1)
		mult--
	}
}

// addPost adds c to the post multiset, growing it when a rule output
// interned a new state mid-batch.
func (d *DenseSim[S]) addPost(id int32, c int64) {
	post := d.post
	for int(id) >= len(post) {
		post = append(post, 0)
	}
	post[id] += c
	d.post = post
}

// collisionStep resolves the interaction that ended a batch — an ordered
// pair of distinct agents conditioned on at least one of them being among
// the batch's m participants — exactly as BatchSim does, with the slot
// array replaced by the post multiset: a uniform pick among slots is a
// post-count-weighted pick among states.
func (d *DenseSim[S]) collisionStep(m int64) {
	n := int64(d.n)
	o := n - m
	postLeft := m
	pickPost := func() int32 {
		u := d.rng.Int64N(postLeft)
		for id, c := range d.post {
			if u < c {
				d.post[id]--
				postLeft--
				return int32(id)
			}
			u -= c
		}
		panic("pop: DenseSim collision draw out of range")
	}
	drawOut := func() int32 {
		id := d.drawLinear(d.rng.Int64N(o))
		d.addCount(id, -1)
		return id
	}
	// Ordered distinct pairs with >=1 participant, by membership pattern.
	bothIn := m * (m - 1)
	recIn := m * o
	r := d.rng.Int64N(bothIn + 2*recIn)
	var ra, rb int32
	switch {
	case r < bothIn:
		ra = pickPost()
		rb = pickPost()
	case r < bothIn+recIn:
		ra = pickPost()
		rb = drawOut()
	default:
		rb = pickPost()
		ra = drawOut()
	}
	d.applyCell(ra, rb, 1)
}

// compact rebuilds the interning tables over the live states, ordered by
// decreasing count so hot states get small ids (and pairing rows exhaust
// early), carrying hot transition-cache entries across the id remap as in
// BatchSim.
func (d *DenseSim[S]) compact() {
	d.stats.Compactions++
	type sc struct {
		id int32
		c  int64
	}
	liveIDs := make([]sc, 0, d.live)
	for id, c := range d.counts {
		if c > 0 {
			liveIDs = append(liveIDs, sc{int32(id), c})
		}
	}
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i].c > liveIDs[j].c })
	remap := make([]int32, len(d.states)) // old id → new id, -1 if dead
	for i := range remap {
		remap[i] = -1
	}
	states := make([]S, 0, len(liveIDs))
	counts := make([]int64, 0, len(liveIDs))
	pos := make(map[S]int32, 2*len(liveIDs))
	for _, e := range liveIDs {
		nid := int32(len(states))
		remap[e.id] = nid
		pos[d.states[e.id]] = nid
		states = append(states, d.states[e.id])
		counts = append(counts, e.c)
	}
	d.states, d.counts, d.pos = states, counts, pos
	if d.tbl != nil {
		d.tbl.rebuild(d.states)
	}

	oldGen := d.cacheGen
	d.invalidateCache()
	carryCache(d.cache, denseCacheBits, oldGen, d.cacheGen, remap)
}
