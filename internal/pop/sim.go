// Package pop implements the population-protocol execution model of
// Doty & Eftekhari (PODC 2019), Section 2: a population of n anonymous
// agents, a uniformly random scheduler that repeatedly selects an ordered
// pair of distinct agents (receiver, sender), and parallel time measured as
// interactions divided by n.
//
// Engines are generic over the agent state type S, which must be
// comparable so that configurations (multisets of states) and the number of
// distinct states used by an execution — the paper's space measure — can be
// tracked with maps.
//
// Three interchangeable backends implement the [Engine] interface:
//
//   - [Sim] (backend [Sequential]) — the reference engine: an explicit
//     agent array stepped one interaction at a time. Agents hold interned
//     state ids, and transitions whose rule drew no randomness are served
//     from a direct-mapped id-pair cache, so a protocol whose interactions
//     are mostly deterministic (most of them are) skips the rule call;
//     configurations too dispersed for the cache are stepped on a plain
//     state array instead. Either way each interaction consumes the same
//     random words, so the trajectory of a seed does not depend on the
//     cache. Use it when per-agent instrumentation is needed
//     (WithInteractionCounts), for debugging, and as the ground truth the
//     multiset engines are validated against.
//
//   - [BatchSim] (backend [Batched]) — the multiset engine: state counts
//     plus collision-free batches of ~√n interactions, per-batch
//     hypergeometric sampling, and the same deterministic-transition cache
//     (see batch.go for the algorithm and its exactness argument). Its cost
//     per interaction scales with the number of live states rather than
//     with n, which for this paper's O(log⁴ n)-state protocols makes it
//     faster than Sim at n >= 10⁶, where Sim's agent array falls out of
//     cache. It falls back to exact sequential stepping while the live
//     state count exceeds WithBatchThreshold.
//
//   - [DenseSim] (backend [Dense]) — the count-vector engine: batches are
//     advanced through the matrix of state-pair interaction counts (see
//     dense.go), for populations far beyond an agent array.
//
// [NewEngine] selects a backend via WithBackend; the default [Auto]
// chooses Batched for populations of at least 4096 agents and Dense for
// very large ones. The backends simulate the identical stochastic process
// — the cross-backend equivalence suite in equiv_test.go validates this —
// but consume the random stream differently, so a seed reproduces a run
// only within one backend. [RunTrials] fans independent trials across
// goroutines.
package pop

import (
	"math/bits"
	"math/rand/v2"
)

// Rule is a randomized transition function δ ⊆ Λ⁴: given the states of the
// receiver and sender (each agent observes the other's full state) and a
// source of uniformly random bits, it returns their successor states.
//
// Deterministic protocols (such as the synthetic-coin variant of Appendix B)
// simply ignore the random source; the scheduler's receiver/sender order is
// itself uniformly random and may be used as a fair coin.
type Rule[S comparable] func(rec, sen S, r *rand.Rand) (recOut, senOut S)

const (
	// simWindow is the cached tier's miss-ratio window: after every
	// simWindow cached-tier interactions, more than simWindow/2 cache
	// misses drop the engine to the direct tier, where a miss-heavy
	// protocol is cheaper (no interning, no cache probe).
	simWindow = 4096
	// simCompactMin and simCompactFactor set the compaction trigger: the
	// interning table is compacted when it reaches max(simCompactMin,
	// simCompactFactor·live) entries, so protocols that keep minting
	// states (exactcount's leader tally) stay bounded by the live set.
	simCompactMin    = 1024
	simCompactFactor = 4
	// simInternDiv bounds a cached-tier configuration: interning gives up
	// (and the engine stays direct) once the configuration holds more
	// than max(simCompactMin, n/simInternDiv) distinct states, so a fully
	// dispersed population never pays for an n-entry interning table.
	simInternDiv = 8
	// simBackoffFactor sizes the direct-tier stint before the first retry
	// of the cached tier: max(simBackoffFactor·n, simWindow·16)
	// interactions, long enough to amortize a failed retry — an interning
	// pass that aborts after n/simInternDiv new states (each a map
	// insert, ~25 ns·n at n = 10⁶, ~3% of a 16n stint) or a miss-heavy
	// window. Consecutive failures double the stint up to
	// simBackoffMaxDoublings times; a cached window that passes resets it.
	simBackoffFactor       = 64
	simBackoffMaxDoublings = 6
	// simCacheMinBits and simCacheMaxBits clamp the transition cache to
	// 2¹⁰…2¹⁶ slots of 16 bytes, sized to ~n slots: a tiny trial
	// allocates 16 KiB, a large one 1 MiB.
	simCacheMinBits = 10
	simCacheMaxBits = 16
)

// Sim executes a population protocol under the uniformly random pairwise
// scheduler. It is not safe for concurrent use; run independent trials on
// independent Sim values.
//
// Sim runs in one of two tiers, chosen at run time and invisible in the
// trajectory. The cached tier keeps the configuration as int32 state ids
// (ids[i] indexes the interning table states) and resolves each
// interaction through the id-pair transition cache, calling the rule only
// on a miss; a transition is cached only if its rule call drew no random
// words, so a hit skips exactly a call that would have consumed nothing
// from the stream. The direct tier keeps a plain []S agent array and calls
// the rule on every interaction; Sim drops to it
// when cached steps miss more than half the time or the configuration has
// too many distinct states to intern, and retries the cached tier with
// doubling back-off. Both tiers draw the scheduler's pair and the rule's
// randomness from the same PCG in the same order, so a seed yields the
// same run whatever the tier history.
type Sim[S comparable] struct {
	pcg          *rand.PCG // rng's source, retained for snapshotting
	rng          *rand.Rand
	ruleRand     *countingSource // counts the words a cached-tier rule call draws
	ruleRng      *rand.Rand
	rule         Rule[S]
	n            int
	interactions int64

	// Per-segment parallel-time accounting (see Engine.Time): timeBase is
	// the parallel time accumulated over completed churn segments and
	// segStart the interaction count at the current segment's start.
	timeBase float64
	segStart int64

	seen    map[S]struct{} // non-nil iff state tracking enabled
	icounts []int64        // non-nil iff per-agent interaction counting enabled

	// Tier state. In the direct tier agents is the configuration; in the
	// cached tier it is the Agents view buffer, refilled from ids when
	// viewFresh is false.
	direct    bool
	agents    []S
	viewFresh bool
	// retryIn counts the direct-tier interactions left before the next
	// cached-tier attempt; backoff is the stint the next drop will get.
	retryIn int64
	backoff int64
	// windowLeft and windowMisses track the current cached-tier window.
	// A window that starts on a cold cache (a freshly built interning
	// table) is a warm-up whose misses are not judged.
	windowLeft   int64
	windowMisses int64
	warming      bool

	// Cached tier: interning table (states/pos, counts[id] agents per id)
	// and the agents' ids. Dead ids linger until compaction, which fires
	// when the table reaches compactAt entries.
	ids       []int32
	states    []S
	pos       map[S]int32
	counts    []int
	compactAt int

	// Direct-mapped transition cache (see cacheSlot, cacheProbe).
	cache     []cacheSlot
	cacheBits uint
	cacheGen  uint64

	// pinTier (test hook) suppresses automatic tier switches, so tests
	// can hold either tier or switch explicitly.
	pinTier bool
}

// New constructs a simulator for a population of n agents whose i'th agent
// starts in initial(i, rng). For a uniform leaderless protocol, initial
// ignores i (all agents start identically); index-dependent initialization
// supports inputs (e.g. majority opinions) and initial leaders.
func New[S comparable](n int, initial func(i int, r *rand.Rand) S, rule Rule[S], opts ...Option) *Sim[S] {
	validatePopSize(int64(n))
	if rule == nil {
		panic("pop: nil rule")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	pcg := rand.NewPCG(o.seed, o.seed^0x9e3779b97f4a7c15)
	rng := rand.New(pcg)
	agents := make([]S, n)
	for i := range agents {
		agents[i] = initial(i, rng)
	}
	var seen map[S]struct{}
	if o.trackStates {
		seen = make(map[S]struct{}, 64)
		for _, a := range agents {
			seen[a] = struct{}{}
		}
	}
	var icounts []int64
	if o.trackInteractions {
		icounts = make([]int64, n)
	}
	return newSim(pcg, agents, rule, seen, icounts)
}

// newSim assembles a Sim around an owned agent array, shared by New and
// Restore, and picks its starting tier.
func newSim[S comparable](pcg *rand.PCG, agents []S, rule Rule[S], seen map[S]struct{}, icounts []int64) *Sim[S] {
	n := len(agents)
	cs := &countingSource{src: pcg}
	s := &Sim[S]{
		pcg:       pcg,
		rng:       rand.New(pcg),
		ruleRand:  cs,
		ruleRng:   rand.New(cs),
		rule:      rule,
		n:         n,
		seen:      seen,
		icounts:   icounts,
		agents:    agents,
		cacheBits: uint(min(max(bits.Len(uint(n-1)), simCacheMinBits), simCacheMaxBits)),
		cacheGen:  1,
		compactAt: simCompactMin,
	}
	s.cache = make([]cacheSlot, 1<<s.cacheBits)
	s.backoff = s.minBackoff()
	if !s.enterCached() {
		s.stayDirect()
	}
	return s
}

// NewFromConfig constructs a simulator whose initial configuration is an
// explicit slice of agent states (copied). It is used by the termination
// and producibility experiments, which need α-dense or leader-containing
// initial configurations.
func NewFromConfig[S comparable](agents []S, rule Rule[S], opts ...Option) *Sim[S] {
	cp := make([]S, len(agents))
	copy(cp, agents)
	return New(len(cp), func(i int, _ *rand.Rand) S { return cp[i] }, rule, opts...)
}

// N returns the population size.
func (s *Sim[S]) N() int { return s.n }

// Interactions returns the number of interactions executed so far.
func (s *Sim[S]) Interactions() int64 { return s.interactions }

// Time returns the parallel time elapsed, accumulated per churn segment
// (see Engine.Time); on a fixed population it equals interactions / n.
func (s *Sim[S]) Time() float64 {
	return s.timeBase + float64(s.interactions-s.segStart)/float64(s.n)
}

// beginSegment folds the current churn segment into timeBase before a
// population-size change, so parallel time keeps meaning "interactions
// over the n they ran against".
func (s *Sim[S]) beginSegment() {
	s.timeBase += float64(s.interactions-s.segStart) / float64(s.n)
	s.segStart = s.interactions
}

// AddAgents adds k agents in state st (a join event). The appended slots
// are indistinguishable from incumbents to the uniform scheduler.
func (s *Sim[S]) AddAgents(st S, k int) {
	checkJoin(s.n, k)
	if k == 0 {
		return
	}
	s.beginSegment()
	if s.direct {
		for i := 0; i < k; i++ {
			s.agents = append(s.agents, st)
		}
	} else {
		id := s.intern(st)
		s.counts[id] += k
		for i := 0; i < k; i++ {
			s.ids = append(s.ids, id)
		}
		s.viewFresh = false
		s.maybeCompact()
	}
	s.n += k
	if s.icounts != nil {
		s.icounts = append(s.icounts, make([]int64, k)...)
	}
	if s.seen != nil {
		s.seen[st] = struct{}{}
	}
}

// RemoveAgents removes k agents chosen uniformly at random without
// replacement (a leave event), refusing to shrink the population below 2.
func (s *Sim[S]) RemoveAgents(k int) {
	checkRemoval(s.n, k)
	if k == 0 {
		return
	}
	s.beginSegment()
	// Swap-delete a uniform index each round: a uniform without-
	// replacement sample of the agent slice (per-agent interaction
	// counts, when tracked, travel with their agent).
	for ; k > 0; k-- {
		n := s.n
		j := s.rng.IntN(n)
		if s.direct {
			s.agents[j] = s.agents[n-1]
			s.agents = s.agents[:n-1]
		} else {
			s.counts[s.ids[j]]--
			s.ids[j] = s.ids[n-1]
			s.ids = s.ids[:n-1]
		}
		if s.icounts != nil {
			s.icounts[j] = s.icounts[n-1]
			s.icounts = s.icounts[:n-1]
		}
		s.n--
	}
	s.viewFresh = false
}

// Agent returns the current state of agent i.
func (s *Sim[S]) Agent(i int) S {
	if s.direct {
		return s.agents[i]
	}
	return s.states[s.ids[i]]
}

// AgentStates returns a copy of the current configuration as a state slice.
func (s *Sim[S]) AgentStates() []S {
	return append([]S(nil), s.Agents()...)
}

// Agents returns the configuration as an agent array for read-only
// scanning by convergence predicates. The slice is the engine's own
// buffer: in the cached tier it is refilled from the state ids on the
// first call after the configuration changed, so it is valid only until
// the next Step, Run or churn call, and callers must not mutate it. Use
// AgentStates for a safe copy.
func (s *Sim[S]) Agents() []S {
	if s.direct || s.viewFresh {
		return s.agents
	}
	if cap(s.agents) < s.n {
		s.agents = make([]S, s.n)
	}
	s.agents = s.agents[:s.n]
	for i, id := range s.ids {
		s.agents[i] = s.states[id]
	}
	s.viewFresh = true
	return s.agents
}

// Counts returns the configuration vector: the multiset of states present,
// as a map from state to count.
func (s *Sim[S]) Counts() map[S]int {
	c := make(map[S]int, 64)
	for _, a := range s.Agents() {
		c[a]++
	}
	return c
}

// Count returns the number of agents satisfying pred.
func (s *Sim[S]) Count(pred func(S) bool) int {
	n := 0
	for _, a := range s.Agents() {
		if pred(a) {
			n++
		}
	}
	return n
}

// All reports whether every agent satisfies pred.
func (s *Sim[S]) All(pred func(S) bool) bool {
	for _, a := range s.Agents() {
		if !pred(a) {
			return false
		}
	}
	return true
}

// Any reports whether at least one agent satisfies pred.
func (s *Sim[S]) Any(pred func(S) bool) bool {
	for _, a := range s.Agents() {
		if pred(a) {
			return true
		}
	}
	return false
}

// DistinctStates returns the number of distinct states observed since the
// initial configuration. It returns 0 unless the simulator was constructed
// with WithStateTracking.
func (s *Sim[S]) DistinctStates() int { return len(s.seen) }

// InteractionCount returns how many interactions agent i has participated
// in. It returns 0 unless WithInteractionCounts was set.
func (s *Sim[S]) InteractionCount(i int) int64 {
	if s.icounts == nil {
		return 0
	}
	return s.icounts[i]
}

// MaxInteractionCount returns the maximum per-agent interaction count, or 0
// if WithInteractionCounts was not set.
func (s *Sim[S]) MaxInteractionCount() int64 {
	var m int64
	for _, c := range s.icounts {
		if c > m {
			m = c
		}
	}
	return m
}

// Rand exposes the simulator's random source (for protocol-specific
// initialization performed outside transition rules, e.g. dense-config
// shuffling in experiments).
func (s *Sim[S]) Rand() *rand.Rand { return s.rng }

// Step executes one interaction: an ordered pair (receiver, sender) of
// distinct agents is selected uniformly at random and the rule is applied.
func (s *Sim[S]) Step() { s.Run(1) }

// Run executes k interactions.
func (s *Sim[S]) Run(k int64) {
	for k > 0 {
		if s.direct {
			k -= s.runDirect(k)
		} else {
			k -= s.runCached(k)
		}
	}
}

// RunTime executes t units of parallel time (t·n interactions, rounded
// down).
func (s *Sim[S]) RunTime(t float64) {
	s.Run(int64(t * float64(s.n)))
}

// RunUntil repeatedly executes checkEvery units of parallel time and then
// evaluates pred, stopping as soon as pred holds or maxTime units of
// parallel time have elapsed since the call began. It returns true if pred
// held, along with the parallel time at which the final check succeeded.
// The check-boundary semantics are shared with the batched engine.
func (s *Sim[S]) RunUntil(pred func(Engine[S]) bool, checkEvery, maxTime float64) (ok bool, at float64) {
	return runUntil[S](s, pred, checkEvery, maxTime)
}

// runDirect executes up to k direct-tier interactions — the reference
// step on the []S agent array, the rule drawing from s.rng — and returns
// how many it ran. When the stint's budget runs out it retries the cached
// tier.
func (s *Sim[S]) runDirect(k int64) int64 {
	run := k
	if !s.pinTier {
		run = min(k, s.retryIn)
	}
	agents, n := s.agents, s.n
	for t := int64(0); t < run; t++ {
		i := s.rng.IntN(n)
		j := s.rng.IntN(n - 1)
		if j >= i {
			j++
		}
		a, b := s.rule(agents[i], agents[j], s.rng)
		agents[i], agents[j] = a, b
		s.interactions++
		if s.icounts != nil {
			s.icounts[i]++
			s.icounts[j]++
		}
		if s.seen != nil {
			s.seen[a] = struct{}{}
			s.seen[b] = struct{}{}
		}
	}
	if s.pinTier {
		return run
	}
	s.retryIn -= run
	if s.retryIn == 0 && !s.enterCached() {
		s.stayDirect()
	}
	return run
}

// runCached executes up to k cached-tier interactions (the rest of the
// current miss window at most) and returns how many it ran. It draws the
// pair exactly as runDirect does; a cache hit replaces the rule call,
// which for a cached pair would have drawn nothing.
func (s *Sim[S]) runCached(k int64) int64 {
	run := k
	if !s.pinTier {
		run = min(k, s.windowLeft)
	}
	ids, counts, n := s.ids, s.counts, s.n
	var misses int64
	for t := int64(0); t < run; t++ {
		i := s.rng.IntN(n)
		j := s.rng.IntN(n - 1)
		if j >= i {
			j++
		}
		a, b := ids[i], ids[j]
		oa, ob, hit := cacheProbe(s.cache, s.cacheBits, s.cacheGen, a, b)
		if !hit {
			misses++
			oa, ob = s.miss(a, b)
			counts = s.counts // interning may have grown it
		}
		if oa != a {
			counts[a]--
			counts[oa]++
		}
		if ob != b {
			counts[b]--
			counts[ob]++
		}
		ids[i], ids[j] = oa, ob
		if s.icounts != nil {
			s.icounts[i]++
			s.icounts[j]++
		}
		if !hit && len(s.states) >= s.compactAt {
			s.compact()
			counts = s.counts
		}
	}
	s.interactions += run
	if run > 0 {
		s.viewFresh = false
	}
	if s.pinTier {
		return run
	}
	s.windowLeft -= run
	s.windowMisses += misses
	if s.windowLeft == 0 {
		if 2*s.windowMisses > simWindow && !s.warming {
			s.enterDirect()
			return run
		}
		if !s.warming {
			s.backoff = s.minBackoff()
		}
		s.windowLeft, s.windowMisses, s.warming = simWindow, 0, false
	}
	return run
}

// miss resolves the id pair (a, b) by calling the rule on the counting
// source, interns its outputs (receiver first), and caches the transition
// if the rule drew no random words.
func (s *Sim[S]) miss(a, b int32) (int32, int32) {
	before := s.ruleRand.words
	sa, sb := s.rule(s.states[a], s.states[b], s.ruleRng)
	oa, ob := s.intern(sa), s.intern(sb)
	if s.ruleRand.words == before {
		cacheStore(s.cache, s.cacheBits, s.cacheGen, a, b, oa, ob)
	}
	return oa, ob
}

// intern returns st's id, appending it to the table (with count 0) if it
// is new. Every state the cached tier produces passes through here, so it
// also feeds distinct-state tracking.
func (s *Sim[S]) intern(st S) int32 {
	if id, ok := s.pos[st]; ok {
		return id
	}
	id := int32(len(s.states))
	s.states = append(s.states, st)
	s.counts = append(s.counts, 0)
	s.pos[st] = id
	if s.seen != nil {
		s.seen[st] = struct{}{}
	}
	return id
}

// maybeCompact compacts the interning table once it reaches compactAt.
func (s *Sim[S]) maybeCompact() {
	if len(s.states) >= s.compactAt {
		s.compact()
	}
}

// compact drops the dead (zero-count) ids from the interning table,
// renumbering the live ones in id order, remaps the agents' ids, and
// carries the surviving cache entries to a new generation.
func (s *Sim[S]) compact() {
	remap := make([]int32, len(s.states)) // old id → new id, -1 if dead
	var states []S
	var counts []int
	pos := make(map[S]int32)
	for id, c := range s.counts {
		if c == 0 {
			remap[id] = -1
			continue
		}
		remap[id] = int32(len(states))
		pos[s.states[id]] = int32(len(states))
		states = append(states, s.states[id])
		counts = append(counts, c)
	}
	live := len(states)
	s.states, s.counts, s.pos = states, counts, pos
	for i, id := range s.ids {
		s.ids[i] = remap[id]
	}
	oldGen := s.cacheGen
	s.cacheGen = advanceCacheGen(s.cache, oldGen)
	carryCache(s.cache, s.cacheBits, oldGen, s.cacheGen, remap)
	s.compactAt = max(simCompactMin, simCompactFactor*live)
}

// enterCached interns the direct tier's agent array into the table
// (keeping existing ids, so cache entries from an earlier cached stint
// stay valid) and switches to the cached tier. It reports false, and
// discards the table, if the configuration holds more than
// max(simCompactMin, n/simInternDiv) distinct states.
func (s *Sim[S]) enterCached() bool {
	limit := max(simCompactMin, s.n/simInternDiv)
	cold := s.pos == nil
	if cold {
		s.pos = make(map[S]int32, 64)
	}
	clear(s.counts)
	if cap(s.ids) < s.n {
		s.ids = make([]int32, s.n)
	}
	s.ids = s.ids[:s.n]
	live := 0
	for i, a := range s.agents[:s.n] {
		id := s.intern(a)
		if s.counts[id] == 0 {
			if live++; live > limit {
				s.ids, s.states, s.counts, s.pos = nil, nil, nil, nil
				s.cacheGen = advanceCacheGen(s.cache, s.cacheGen)
				s.compactAt = simCompactMin
				return false
			}
		}
		s.counts[id]++
		s.ids[i] = id
	}
	s.direct = false
	s.viewFresh = true // agents still holds exactly this configuration
	s.windowLeft, s.windowMisses, s.warming = simWindow, 0, cold
	s.maybeCompact()
	return true
}

// enterDirect materializes the cached tier's configuration into the agent
// array and switches to the direct tier for a back-off stint. The
// interning table is compacted and kept, so the surviving cache entries
// are valid again when the cached tier is retried; the ids are not.
func (s *Sim[S]) enterDirect() {
	s.Agents()
	s.compact()
	s.ids = nil
	s.stayDirect()
}

// stayDirect puts the engine in the direct tier for the current back-off
// stint and doubles the next one (up to simBackoffMaxDoublings).
func (s *Sim[S]) stayDirect() {
	s.direct = true
	s.retryIn = s.backoff
	s.backoff = min(2*s.backoff, s.minBackoff()<<simBackoffMaxDoublings)
}

// minBackoff is the first direct-tier stint at the current population
// size.
func (s *Sim[S]) minBackoff() int64 {
	return max(simBackoffFactor*int64(s.n), 16*simWindow)
}
