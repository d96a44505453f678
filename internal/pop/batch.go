// BatchSim: the batched multiset simulation backend.
//
// # Representation
//
// Agents are anonymous, so an execution is fully described by its
// configuration trajectory — the multiset of states over time. BatchSim
// stores only that multiset: states are interned to dense int32 ids and a
// counts vector holds how many agents occupy each. All per-interaction
// work then scales with q, the number of currently-live distinct states
// (O(log⁴ n) for this paper's protocols), instead of touching an n-sized
// agent array whose random accesses dominate the sequential engine's cost
// at large n. Compaction keeps ids dense and ordered by decreasing count,
// so the hottest states occupy the smallest ids.
//
// # Batching
//
// Following Berenbrink et al. (arXiv:2005.03584), interactions are
// processed in collision-free batches. Whether the scheduler's t-th pair
// since the batch began reuses an already-seen agent depends only on n,
// not on states: the next interaction is collision-free with probability
// (n−2t)(n−2t−1)/(n(n−1)) after t collision-free interactions. BatchSim
// inverse-transform samples the run length ℓ until the first collision
// (or a cap) by binary search in a per-engine table of the survival
// product, in O(log ℓ) (see runLengthTable), giving a run of ℓ
// interactions among 2ℓ distinct agents — a uniform sample without
// replacement from the population. The 2ℓ participant states are
// therefore a multivariate hypergeometric draw from the counts vector,
// taken either state-by-state (when batches are long relative to q, with
// a Fisher–Yates shuffle realizing the uniformly random pairing) or
// slot-by-slot through a Fenwick tree (when q is large relative to the
// batch). The collision interaction itself, when one was sampled, is
// resolved exactly: the colliding pair is drawn from the correct
// conditional distribution over batch participants (whose
// post-interaction states are known) and outsiders. The configuration
// trajectory is consequently distributed identically to the sequential
// engine's, up to float64 rounding in two inverse-transform samplers (the
// same caveat as any floating-point sampler) — batching is a change of
// simulation algorithm, not of model.
//
// # Transition caching
//
// Rules are opaque randomized functions, but most protocol transitions are
// deterministic. BatchSim feeds rules a rand.Rand whose Source counts how
// many random words the rule consumes: a (receiver, sender) state pair
// whose transition consumed none is a pure function of its inputs and is
// cached in a fixed-size direct-mapped table keyed by the id pair, so
// subsequent interactions of that pair skip the rule entirely (conflicting
// pairs simply evict each other). This relies on rules being pure
// functions of (rec, sen, randomness) — true of every protocol in this
// repository and required by the Rule contract. Compaction remaps ids, so
// it advances a generation stamp embedded in the keys and carries the
// surviving hot entries across.
//
// # Fallback
//
// Protocols (or phases) whose live state count exceeds WithBatchThreshold
// get no benefit from multiset bookkeeping, so BatchSim materializes an
// explicit agent array and steps it sequentially — the exact reference
// semantics — re-entering batch mode if the configuration re-concentrates.
// The batched engine cannot provide per-agent interaction counts
// (WithInteractionCounts); use the sequential engine for those
// experiments.
package pop

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// countingSource wraps a rand.Source and counts the words drawn through
// it, letting BatchSim detect whether a rule consumed randomness.
type countingSource struct {
	src   rand.Source
	words uint64
}

func (c *countingSource) Uint64() uint64 {
	c.words++
	return c.src.Uint64()
}

// BatchStats reports how a BatchSim run was executed; it is diagnostic
// only (exposed for tests, benchmarks and tuning).
type BatchStats struct {
	// Batches is the number of collision-free batches processed.
	Batches int64
	// BatchedInteractions counts interactions simulated inside batches
	// (including their collision steps).
	BatchedInteractions int64
	// SeqInteractions counts interactions executed in the materialized
	// sequential fallback mode.
	SeqInteractions int64
	// Fallbacks is the number of batch→sequential mode switches.
	Fallbacks int64
	// Reentries is the number of sequential→batch mode switches.
	Reentries int64
	// CacheHits / RuleCalls split pair transitions between the
	// deterministic-transition cache and actual rule invocations;
	// UncachedPairs counts rule invocations made while the dense cache
	// was disabled or did not cover the pair's ids. TableHits counts
	// transitions resolved by the declared-table bypass (WithTable),
	// which skips both the cache probe and the rule.
	CacheHits     int64
	RuleCalls     int64
	UncachedPairs int64
	TableHits     int64
	// Compactions counts interning-table rebuilds.
	Compactions int64
}

const (
	// defaultBatchThreshold is the live-state cutoff beyond which the
	// multiset representation stops paying for itself.
	defaultBatchThreshold = 8192
	// maxBatchPairs caps a single batch's length (slots memory and
	// scratch sizes scale with it).
	maxBatchPairs = 1 << 16
	// cacheBits sizes the direct-mapped transition cache: 1<<cacheBits
	// slots of 16 bytes (4 MiB). Conflicting pairs simply evict each
	// other; the hot working set of real protocols is far smaller.
	cacheBits = 18
	// stateSampleFactor: batches with at least stateSampleFactor slots
	// per live state sample slot counts state-by-state (hypergeometric
	// chain + shuffle); shorter ones sample slot-by-slot (Fenwick).
	stateSampleFactor = 2
	// batchHeavyMean: within the state-by-state path, a state is sampled
	// with its own hypergeometric draw only while it expects at least
	// this many slots; lighter states switch to per-slot suffix draws.
	batchHeavyMean = 8
	// seqRecheckFactor: in fallback mode, live states are recounted every
	// seqRecheckFactor·n interactions to decide on re-entering batch
	// mode.
	seqRecheckFactor = 2
	// cacheMaxID bounds the ids packable into a cache key (22 bits each,
	// with the remaining 20 bits holding the compaction generation).
	cacheMaxID = 1 << 22
)

// BatchSim is the batched multiset engine. See the file comment for the
// algorithm. It is not safe for concurrent use; run independent trials on
// independent values (e.g. via RunTrials).
type BatchSim[S comparable] struct {
	pcg       *rand.PCG // rng's source, retained for snapshotting
	rng       *rand.Rand
	ruleRand  *countingSource
	ruleRng   *rand.Rand
	rule      Rule[S]
	n         int
	interacts int64

	// Per-segment parallel-time accounting (see Engine.Time).
	timeBase float64
	segStart int64

	// Interning. states/counts are parallel: counts[id] agents currently
	// hold states[id]. live counts the ids with counts > 0; distinct
	// counts every state ever interned (the DistinctStates measure).
	states   []S
	pos      map[S]int32
	counts   []int64
	total    int64 // running Σcounts; must equal n (conservation invariant)
	live     int
	distinct int

	qMax int // live-state fallback threshold

	// Direct-mapped transition cache. A slot holds the generation-stamped
	// id pair and its packed deterministic outputs; compaction remaps ids,
	// so it bumps cacheGen, implicitly invalidating every older entry.
	cache    []cacheSlot
	cacheGen uint64

	// Declared-table bypass (WithTable): the compiled table plus the
	// engine-id ↔ table-id translation, rebuilt on compaction. nil when
	// no table is attached.
	tbl *tableView[S]

	// Sequential fallback mode.
	seqMode    bool
	agents     []S
	seqRecheck int64 // interactions until the next re-entry check

	runLen runLengthTable // ℓ sampler, derived from n (see runlen.go)

	tree  fenwick
	slots []int32 // batch scratch: pre states, then post states

	// test hooks (nil/false in production)
	forceNoSeq  bool
	batchEvents func(ell int, collided bool)

	stats BatchStats
}

// newBatchShell builds a BatchSim with everything but its initial
// configuration, shared by the constructors below.
func newBatchShell[S comparable](rule Rule[S], o options) *BatchSim[S] {
	if rule == nil {
		panic("pop: nil rule")
	}
	if o.trackInteractions {
		panic("pop: the batched backend cannot track per-agent interaction counts; use WithBackend(Sequential)")
	}
	pcg := rand.NewPCG(o.seed, o.seed^0x9e3779b97f4a7c15)
	cs := &countingSource{src: pcg}
	tbl := attachTable[S](o)
	b := &BatchSim[S]{
		pcg:      pcg,
		rng:      rand.New(pcg),
		ruleRand: cs,
		ruleRng:  rand.New(cs),
		rule:     rule,
		pos:      make(map[S]int32, posSizeFor(tbl)),
		tbl:      tbl,
		qMax:     defaultBatchThreshold,
	}
	if o.batchThreshold > 0 {
		b.qMax = o.batchThreshold
	}
	b.cache = make([]cacheSlot, 1<<cacheBits)
	b.cacheGen = 1
	return b
}

// NewBatch constructs a batched multiset simulator; the arguments mirror
// New. It panics if WithInteractionCounts was requested (the multiset
// representation has no agent identities).
func NewBatch[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) *BatchSim[S] {
	validatePopSize(int64(n))
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	b := newBatchShell[S](rule, o)
	b.n = n
	for i := 0; i < n; i++ {
		b.addCount(b.intern(initial(i, b.rng)), 1)
	}
	b.compact()
	return b
}

// NewBatchFromConfig is NewBatch for an explicit initial configuration
// (copied), mirroring NewFromConfig.
func NewBatchFromConfig[S comparable](agents []S, rule Rule[S], opts ...Option) *BatchSim[S] {
	cp := make([]S, len(agents))
	copy(cp, agents)
	return NewBatch(len(cp), func(i int, _ *rand.Rand) S { return cp[i] }, rule, opts...)
}

// NewBatchFromCounts constructs a batched multiset simulator directly from
// a configuration multiset given as parallel slices: states[i] is held by
// counts[i] agents (zero-count entries are skipped, duplicate states
// accumulate). Unlike NewBatchFromConfig it never materializes an agent
// slice, so it works at population sizes where an agent array would not
// fit in memory; DenseSim uses it to delegate mid-run.
func NewBatchFromCounts[S comparable](states []S, counts []int64, rule Rule[S], opts ...Option) *BatchSim[S] {
	n := int(validateCounts(states, counts))
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	b := newBatchShell[S](rule, o)
	for i, c := range counts {
		if c > 0 {
			b.addCount(b.intern(states[i]), c)
		}
	}
	b.n = n
	b.compact()
	return b
}

// intern returns the dense id of state s, assigning one if new.
func (b *BatchSim[S]) intern(s S) int32 {
	if id, ok := b.pos[s]; ok {
		return id
	}
	id := int32(len(b.states))
	b.states = append(b.states, s)
	b.counts = append(b.counts, 0)
	b.pos[s] = id
	b.distinct++
	if b.tbl != nil {
		b.tbl.noteIntern(s, id)
	}
	return id
}

// addCount adjusts counts[id] by d, maintaining the live-state count and
// the conservation total.
func (b *BatchSim[S]) addCount(id int32, d int64) {
	c := b.counts[id]
	nc := c + d
	if nc < 0 {
		panic("pop: BatchSim state count went negative")
	}
	b.counts[id] = nc
	b.total += d
	if c == 0 && nc > 0 {
		b.live++
	} else if c > 0 && nc == 0 {
		b.live--
	}
}

// N returns the population size.
func (b *BatchSim[S]) N() int { return b.n }

// Interactions returns the number of interactions executed so far.
func (b *BatchSim[S]) Interactions() int64 { return b.interacts }

// Time returns the parallel time elapsed, accumulated per churn segment
// (see Engine.Time); on a fixed population it equals interactions / n.
func (b *BatchSim[S]) Time() float64 {
	return b.timeBase + float64(b.interacts-b.segStart)/float64(b.n)
}

// beginSegment folds the current churn segment into timeBase before a
// population-size change.
func (b *BatchSim[S]) beginSegment() {
	b.timeBase += float64(b.interacts-b.segStart) / float64(b.n)
	b.segStart = b.interacts
}

// AddAgents adds k agents in state st (a join event): one count edit in
// multiset mode, k appended slots in the sequential fallback.
func (b *BatchSim[S]) AddAgents(st S, k int) {
	checkJoin(b.n, k)
	if k == 0 {
		return
	}
	b.beginSegment()
	if b.seqMode {
		b.intern(st) // keep DistinctStates exact, as seqStep does
		for i := 0; i < k; i++ {
			b.agents = append(b.agents, st)
		}
	} else {
		b.addCount(b.intern(st), int64(k))
	}
	b.n += k
}

// RemoveAgents removes k agents chosen uniformly at random without
// replacement (a leave event), refusing to shrink the population below 2.
// In multiset mode the removed agents' states are a multivariate
// hypergeometric sample of the counts vector, drawn with the same
// heavy/light chain the batch sampler uses.
func (b *BatchSim[S]) RemoveAgents(k int) {
	checkRemoval(b.n, k)
	if k == 0 {
		return
	}
	b.beginSegment()
	if b.seqMode {
		for r := k; r > 0; r-- {
			n := len(b.agents)
			j := b.rng.IntN(n)
			b.agents[j] = b.agents[n-1]
			b.agents = b.agents[:n-1]
		}
	} else {
		removeCountsChain(b.rng, &b.tree, b.counts, b.total, int64(k), b.addCount)
	}
	b.n -= k
}

// DistinctStates returns the number of distinct states observed since the
// initial configuration. Unlike the sequential engine, the batched engine
// tracks this as a side effect of interning and needs no option.
func (b *BatchSim[S]) DistinctStates() int { return b.distinct }

// Stats returns execution diagnostics.
func (b *BatchSim[S]) Stats() BatchStats { return b.stats }

// LiveStates returns the number of distinct states currently present.
func (b *BatchSim[S]) LiveStates() int {
	if b.seqMode {
		b.recountFromAgents()
	}
	return b.live
}

// Counts returns the configuration vector.
func (b *BatchSim[S]) Counts() map[S]int {
	if b.seqMode {
		c := make(map[S]int, 64)
		for _, a := range b.agents {
			c[a]++
		}
		return c
	}
	c := make(map[S]int, b.live)
	for id, cnt := range b.counts {
		if cnt > 0 {
			c[b.states[id]] = int(cnt)
		}
	}
	return c
}

// Count returns the number of agents satisfying pred.
func (b *BatchSim[S]) Count(pred func(S) bool) int {
	if b.seqMode {
		k := 0
		for _, a := range b.agents {
			if pred(a) {
				k++
			}
		}
		return k
	}
	var k int64
	for id, cnt := range b.counts {
		if cnt > 0 && pred(b.states[id]) {
			k += cnt
		}
	}
	return int(k)
}

// All reports whether every agent satisfies pred.
func (b *BatchSim[S]) All(pred func(S) bool) bool {
	if b.seqMode {
		for _, a := range b.agents {
			if !pred(a) {
				return false
			}
		}
		return true
	}
	for id, cnt := range b.counts {
		if cnt > 0 && !pred(b.states[id]) {
			return false
		}
	}
	return true
}

// Any reports whether at least one agent satisfies pred.
func (b *BatchSim[S]) Any(pred func(S) bool) bool {
	return !b.All(func(s S) bool { return !pred(s) })
}

// RunTime executes t units of parallel time (t·n interactions, rounded
// down).
func (b *BatchSim[S]) RunTime(t float64) {
	b.Run(int64(t * float64(b.n)))
}

// RunUntil has the semantics documented on Engine.RunUntil, shared with
// the sequential engine.
func (b *BatchSim[S]) RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	return runUntil[S](b, pred, checkEvery, maxTime)
}

// Step executes one interaction. In batch mode this is an exact
// single-interaction multiset step (the pair of states is drawn from the
// same distribution the agent-level scheduler induces); it costs O(q) and
// exists for API completeness — Run amortizes far better.
func (b *BatchSim[S]) Step() {
	if b.seqMode {
		b.seqStep()
		return
	}
	ra := b.drawLinear(b.rng.Int64N(int64(b.n)))
	b.addCount(ra, -1)
	rb := b.drawLinear(b.rng.Int64N(int64(b.n) - 1))
	b.addCount(rb, -1)
	oa, ob := b.applyPair(ra, rb)
	b.addCount(oa, 1)
	b.addCount(ob, 1)
	b.interacts++
}

// drawLinear maps u ∈ [0, Σcounts) to a state id by linear scan.
func (b *BatchSim[S]) drawLinear(u int64) int32 {
	for id, c := range b.counts {
		if u < c {
			return int32(id)
		}
		u -= c
	}
	panic("pop: BatchSim draw out of range")
}

// Run executes k interactions.
func (b *BatchSim[S]) Run(k int64) {
	for k > 0 {
		if b.seqMode {
			k -= b.seqRun(k)
			continue
		}
		if b.live > b.qMax {
			b.materialize()
			continue
		}
		if k < 8 || b.n < 8 {
			b.Step()
			k--
			continue
		}
		if len(b.states) >= 4*b.live && len(b.states) >= 256 {
			b.compact()
		}
		k -= b.runBatch(k)
	}
}

// runBatch simulates one collision-free batch (plus its collision
// interaction, if one was sampled) of at most kmax interactions, and
// returns how many interactions it executed.
func (b *BatchSim[S]) runBatch(kmax int64) int64 {
	n := int64(b.n)
	// Sample the collision-free run length ℓ (see runLengthTable): a
	// cap from kmax, scratch limits or population size just ends the
	// batch early with no collision interaction, which composes exactly —
	// each batch draws its participants from the fully committed
	// configuration.
	maxPairs := min(int64(maxBatchPairs), kmax, n/3+1)
	ell, collided := b.runLen.collisionFreeRun(b.rng, n, maxPairs)
	if ell == 0 {
		// Only possible when a cap degenerated; fall back to one exact step.
		b.Step()
		return 1
	}
	m := 2 * ell

	// Draw the 2ℓ participant states without replacement and pair them.
	if cap(b.slots) < int(m)+2 {
		b.slots = make([]int32, m+2)
	}
	slots := b.slots[:m]
	if m >= int64(stateSampleFactor*b.live) {
		b.sampleSlotsByState(slots)
	} else {
		b.sampleSlotsByFenwick(slots)
	}

	// Apply the rule to each ordered pair, rewriting the slot array in
	// place with the post-interaction states.
	for i := int64(0); i < m; i += 2 {
		slots[i], slots[i+1] = b.applyPair(slots[i], slots[i+1])
	}

	done := ell
	if collided {
		slots = b.collisionStep(slots)
		done++
	}

	// Commit participants' post states.
	for _, id := range slots {
		b.addCount(id, 1)
	}
	b.interacts += done
	b.stats.Batches++
	b.stats.BatchedInteractions += done
	if b.total != n {
		panic(fmt.Sprintf("pop: BatchSim conservation violated: %d agents after batch, want %d", b.total, n))
	}
	if b.batchEvents != nil {
		b.batchEvents(int(ell), collided)
	}
	return done
}

// sampleSlotsByState fills slots with a uniform without-replacement sample
// of participant states in O(q·H + |slots|): one hypergeometric draw per
// live state (compaction keeps ids roughly count-descending, so the slots
// usually run out after the first few states), then a Fisher–Yates shuffle
// to realize the uniformly random pairing. Counts are debited as part of
// sampling.
func (b *BatchSim[S]) sampleSlotsByState(slots []int32) {
	remainingPop := b.total
	remainingSlots := int64(len(slots))
	w := 0
	for id := 0; id < len(b.counts) && remainingSlots > 0; id++ {
		c := b.counts[id]
		if c == 0 {
			continue
		}
		// Per-state hypergeometric sampling only pays off for heavy
		// states; once the remaining states each expect only a few slots,
		// per-slot draws over the suffix cost remainingSlots·log q and
		// skip the untouched tail entirely. The suffix tree conditions
		// correctly: slots already allocated went to earlier states, and
		// the chain factorizes in id order.
		if lightDraw(c, remainingSlots, batchHeavyMean, remainingPop) && remainingSlots < 2*int64(len(b.counts)-id) {
			b.tree.reset(b.counts[id:])
			for ; remainingSlots > 0; remainingSlots-- {
				sid := int32(id + b.tree.findAndDec(b.rng.Int64N(remainingPop)))
				remainingPop--
				b.addCount(sid, -1)
				slots[w] = sid
				w++
			}
			break
		}
		var k int64
		if remainingPop == remainingSlots {
			k = c // forced: every remaining agent participates
		} else {
			k = hypergeometric(b.rng, remainingPop, c, remainingSlots)
		}
		remainingPop -= c
		remainingSlots -= k
		if k > 0 {
			b.addCount(int32(id), -k)
			for ; k > 0; k-- {
				slots[w] = int32(id)
				w++
			}
		}
	}
	if remainingSlots != 0 {
		panic("pop: BatchSim slot sampling under-filled")
	}
	// Fisher–Yates: a uniform permutation makes consecutive slot pairs a
	// uniformly random ordered pairing of the sampled multiset.
	for i := len(slots) - 1; i > 0; i-- {
		j := b.rng.IntN(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
}

// sampleSlotsByFenwick fills slots via per-slot weighted draws without
// replacement in O(|slots|·log q), for configurations whose state count is
// large relative to the batch. Counts are debited as part of sampling.
func (b *BatchSim[S]) sampleSlotsByFenwick(slots []int32) {
	b.tree.reset(b.counts)
	remaining := b.total
	for i := range slots {
		id := int32(b.tree.findAndDec(b.rng.Int64N(remaining)))
		remaining--
		b.addCount(id, -1)
		slots[i] = id
	}
}

// collisionStep resolves the interaction that ended a batch: an ordered
// pair of distinct agents conditioned on at least one of them being among
// the batch's 2ℓ participants. Participants' current states are the
// post-interaction states in slots; outsiders are drawn from the debited
// counts. It returns the updated pending-commit slice (collision
// participants replaced by their outputs).
func (b *BatchSim[S]) collisionStep(slots []int32) []int32 {
	n := int64(b.n)
	m := int64(len(slots))
	o := n - m
	// Ordered distinct pairs with >=1 participant, by membership pattern.
	bothIn := m * (m - 1)
	recIn := m * o
	r := b.rng.Int64N(bothIn + 2*recIn)
	pick := func() int32 {
		j := b.rng.IntN(len(slots))
		id := slots[j]
		slots[j] = slots[len(slots)-1]
		slots = slots[:len(slots)-1]
		return id
	}
	drawOut := func() int32 {
		id := b.drawLinear(b.rng.Int64N(o))
		b.addCount(id, -1)
		return id
	}
	var ra, rb int32
	switch {
	case r < bothIn:
		ra = pick()
		rb = pick()
	case r < bothIn+recIn:
		ra = pick()
		rb = drawOut()
	default:
		rb = pick()
		ra = drawOut()
	}
	oa, ob := b.applyPair(ra, rb)
	return append(slots, oa, ob)
}

// applyPair returns the post-interaction state ids for the ordered pair
// (receiver, sender), consulting the declared-table bypass first, then
// the deterministic-transition cache, before invoking the rule.
func (b *BatchSim[S]) applyPair(ida, idb int32) (int32, int32) {
	if t := b.tbl; t != nil {
		if toa, tob, ok := t.probe(ida, idb); ok {
			b.stats.TableHits++
			// Translate table ids back to engine ids, interning outputs
			// not yet present — receiver first, exactly the order the
			// rule path interns, so trajectories stay byte-identical.
			oa := t.engOf[toa]
			if oa < 0 {
				oa = b.intern(t.c.states[toa])
			}
			ob := t.engOf[tob]
			if ob < 0 {
				ob = b.intern(t.c.states[tob])
			}
			return oa, ob
		}
	}
	if oa, ob, ok := cacheProbe(b.cache, cacheBits, b.cacheGen, ida, idb); ok {
		b.stats.CacheHits++
		return oa, ob
	}
	if ida >= cacheMaxID || idb >= cacheMaxID {
		b.stats.UncachedPairs++
	}
	before := b.ruleRand.words
	sa, sb := b.rule(b.states[ida], b.states[idb], b.ruleRng)
	b.stats.RuleCalls++
	oa, ob := b.intern(sa), b.intern(sb)
	if b.ruleRand.words == before {
		// The rule consumed no randomness, so this transition is a pure
		// function of the input pair: cache it.
		cacheStore(b.cache, cacheBits, b.cacheGen, ida, idb, oa, ob)
	}
	return oa, ob
}

// cacheSlot is one direct-mapped transition-cache entry: a
// generation-stamped (receiver, sender) id pair and its packed outputs.
type cacheSlot struct {
	key uint64 // gen<<44 | receiver<<22 | sender; 0 = empty (gen starts at 1)
	out uint64 // receiver output << 32 | sender output
}

// compact rebuilds the interning tables over the live states, ordered by
// decreasing count so hot states get small ids, and resizes the dense
// transition cache accordingly (ids are remapped, so it is cleared). Runs
// at construction and whenever dead states dominate the tables.
func (b *BatchSim[S]) compact() {
	b.stats.Compactions++
	type sc struct {
		id int32
		c  int64
	}
	liveIDs := make([]sc, 0, b.live)
	for id, c := range b.counts {
		if c > 0 {
			liveIDs = append(liveIDs, sc{int32(id), c})
		}
	}
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i].c > liveIDs[j].c })
	remap := make([]int32, len(b.states)) // old id → new id, -1 if dead
	for i := range remap {
		remap[i] = -1
	}
	states := make([]S, 0, len(liveIDs))
	counts := make([]int64, 0, len(liveIDs))
	pos := make(map[S]int32, 2*len(liveIDs))
	for _, e := range liveIDs {
		nid := int32(len(states))
		remap[e.id] = nid
		pos[b.states[e.id]] = nid
		states = append(states, b.states[e.id])
		counts = append(counts, e.c)
	}
	b.states, b.counts, b.pos = states, counts, pos
	if b.tbl != nil {
		b.tbl.rebuild(b.states)
	}

	// Ids were remapped: advance the cache generation so stale entries
	// can never match, then carry the still-live hot transitions over
	// under their new ids (re-deriving them would cost a rule call per
	// hot pair after every compaction).
	oldGen := b.cacheGen
	b.cacheGen = advanceCacheGen(b.cache, oldGen)
	carryCache(b.cache, cacheBits, oldGen, b.cacheGen, remap)
}

// materialize switches to the sequential fallback: the multiset is
// expanded into an explicit agent array (order is irrelevant — agents are
// anonymous and the scheduler is exchangeable) and stepped exactly as the
// reference engine does.
func (b *BatchSim[S]) materialize() {
	if b.forceNoSeq {
		panic("pop: BatchSim fell back to sequential mode with forceNoSeq set")
	}
	if cap(b.agents) < b.n {
		b.agents = make([]S, 0, b.n)
	}
	b.agents = b.agents[:0]
	for id, c := range b.counts {
		for ; c > 0; c-- {
			b.agents = append(b.agents, b.states[id])
		}
	}
	b.seqMode = true
	b.seqRecheck = int64(seqRecheckFactor) * int64(b.n)
	b.stats.Fallbacks++
}

// seqStep is one agent-array interaction, identical in distribution to
// Sim.Step. Outputs are interned so DistinctStates stays exact and
// re-entry checks can count live states.
func (b *BatchSim[S]) seqStep() {
	i := b.rng.IntN(b.n)
	j := b.rng.IntN(b.n - 1)
	if j >= i {
		j++
	}
	sa, sb := b.rule(b.agents[i], b.agents[j], b.ruleRng)
	b.intern(sa)
	b.intern(sb)
	b.agents[i], b.agents[j] = sa, sb
	b.interacts++
	b.stats.SeqInteractions++
}

// seqRun executes up to k sequential-mode interactions, returning how many
// it ran; it periodically recounts live states and re-enters batch mode
// when the configuration re-concentrates.
func (b *BatchSim[S]) seqRun(k int64) int64 {
	run := min(k, b.seqRecheck)
	for i := int64(0); i < run; i++ {
		b.seqStep()
	}
	b.seqRecheck -= run
	if b.seqRecheck <= 0 {
		b.recountFromAgents()
		if b.live <= b.qMax/2 {
			b.seqMode = false
			b.compact()
			b.stats.Reentries++
		} else {
			b.seqRecheck = int64(seqRecheckFactor) * int64(b.n)
		}
	}
	return run
}

// recountFromAgents rebuilds the counts vector from the agent array.
func (b *BatchSim[S]) recountFromAgents() {
	for i := range b.counts {
		b.counts[i] = 0
	}
	b.total = 0
	b.live = 0
	for _, a := range b.agents {
		b.addCount(b.intern(a), 1)
	}
}
