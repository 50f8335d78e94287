package core

import (
	"container/list"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"kgaq/internal/kg"
)

// DefaultCacheBytes is the answer-space cache's default memory bound.
const DefaultCacheBytes int64 = 64 << 20

// stageKey identifies one converged chain stage: everything that shapes the
// walker's stationary distribution and its answer filter (root, query
// predicate, target types, walk config). Validator knobs (τ, repeat) are
// deliberately NOT part of the key — they only affect verdicts, which live
// in a per-(τ, repeat) sub-map on the entry — so a per-query WithTau
// override still hits the cached convergence and merely re-validates.
// The epoch is not part of the key either: entries stay valid across
// epochs until a mutation touches their scope (see invalidate).
type stageKey struct {
	root  kg.NodeID
	pred  kg.PredID
	types string // sorted target TypeIDs, encoded
	n     int
}

// verdictKey selects one validator configuration's verdict map within a
// cached stage.
type verdictKey struct {
	tau    float64
	repeat int
}

// typesKeyOf canonicalises a type set (query order is irrelevant).
func typesKeyOf(types []kg.TypeID) string {
	ts := slices.Clone(types)
	slices.Sort(ts)
	return fmt.Sprint(ts)
}

// stageEntry is one converged stage: the renormalised answer distribution
// π′, the stationary distribution π over the walk's scope (the validator's
// expansion priorities) as an array parallel to the scope's node list, and
// one leg-verdict cache per validator configuration. answers/probs/pi/scope
// are immutable after construction and read lock-free; verdicts is guarded
// by mu and grows as queries validate answers, so repeated queries skip both
// convergence and re-validation.
//
// The entry also records the epoch it was built at and its scope — the node
// set of the walk's n-bound, sorted by NodeID when the engine has a cache
// (else in the walk's discovery order: nothing matches a mutation against
// an uncached stage). A mutation invalidates a cached entry iff it touches
// a scope node: everything the stage caches (transition rows, π, verdict
// paths of length ≤ n) is a function of the scope's topology and types
// alone, so snapshots whose mutations all land outside the scope share the
// entry soundly.
type stageEntry struct {
	cacheMeta // scope: the walk's n-bounded node set
	answers   []kg.NodeID
	probs     []float64
	pi        []float64 // π of scope[k] at k

	mu       sync.Mutex
	verdicts map[verdictKey]*verdictTable
}

// cacheMeta is what the cache knows of an entry of either kind — a converged
// stage or an assembled answer space — and all its validity rule needs: the
// epoch the entry was built at (never served to an older view), the sorted
// node set a mutation is matched against (any touch evicts the entry), and
// the resident bytes charged to the budget.
type cacheMeta struct {
	epoch uint64
	scope []kg.NodeID
	cost  int64
}

// verdictTable is a flat open-addressing verdict cache keyed by node id —
// the shared stage-level counterpart of the execution's per-index verdict
// byte array. Every refinement round's batch validation probes it once per
// distinct drawn answer, so the probe replaces a Go map lookup with one
// multiply-hash and a short linear scan over a power-of-two slot array.
// Keys are stored as node id + 1 so the zero slot means empty (NodeID 0 is
// a valid node). First verdict wins, matching the map-based semantics it
// replaced. Not goroutine-safe: callers hold the stage entry's mutex.
type verdictTable struct {
	keys []int64
	vals []bool
	n    int
}

func newVerdictTable() *verdictTable {
	return &verdictTable{keys: make([]int64, 64), vals: make([]bool, 64)}
}

func (t *verdictTable) slot(u kg.NodeID) int {
	h := uint64(u) * 0x9E3779B97F4A7C15
	return int((h ^ (h >> 32)) & uint64(len(t.keys)-1))
}

// get returns the cached verdict for u and whether one exists.
func (t *verdictTable) get(u kg.NodeID) (verdict, ok bool) {
	k := int64(u) + 1
	mask := len(t.keys) - 1
	for i := t.slot(u); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return false, false
		}
	}
}

// put caches a verdict for u; an existing entry is kept unchanged.
func (t *verdictTable) put(u kg.NodeID, v bool) {
	if 4*(t.n+1) > 3*len(t.keys) { // grow at 75% load
		old := *t
		t.keys = make([]int64, 2*len(old.keys))
		t.vals = make([]bool, 2*len(old.vals))
		t.n = 0
		for i, k := range old.keys {
			if k != 0 {
				t.put(kg.NodeID(k-1), old.vals[i])
			}
		}
	}
	k := int64(u) + 1
	mask := len(t.keys) - 1
	for i := t.slot(u); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return // first verdict wins
		case 0:
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		}
	}
}

// maxVerdictConfigs bounds how many distinct (τ, repeat) verdict maps one
// cached stage may hold. Verdict keys are always members of the stage's
// answer set, so each map is bounded by len(answers); the config count is
// the only unbounded dimension (kgaqd accepts per-request τ overrides), and
// capping it keeps the entry's resident size within the cost charged to the
// LRU budget at insert time.
const maxVerdictConfigs = 8

// verdictsFor returns the verdict table of one validator configuration,
// creating it on first use. When a new configuration would exceed
// maxVerdictConfigs, all verdict tables are dropped and rebuilt on demand —
// verdicts are recomputable, and a workload cycling through more than
// maxVerdictConfigs τ values is already re-validating constantly. Callers
// must hold st.mu.
func (st *stageEntry) verdictsFor(k verdictKey) *verdictTable {
	m, ok := st.verdicts[k]
	if !ok {
		if len(st.verdicts) >= maxVerdictConfigs {
			clear(st.verdicts)
		}
		m = newVerdictTable()
		st.verdicts[k] = m
	}
	return m
}

func newStageEntry(answers []kg.NodeID, probs, pi []float64, epoch uint64, scope []kg.NodeID) *stageEntry {
	st := &stageEntry{
		cacheMeta: cacheMeta{epoch: epoch, scope: scope},
		answers:   answers,
		probs:     probs,
		pi:        pi,
		verdicts:  make(map[verdictKey]*verdictTable),
	}
	// Approximate resident bytes: the distribution slices, the π and scope
	// arrays, and headroom for the verdict tables to fill in (9 bytes per
	// open-addressing slot at ≤75% load per possible validator
	// configuration) — the worst case the maxVerdictConfigs cap allows, so
	// the LRU budget stays honest as verdicts accumulate.
	st.cost = 256 +
		int64(len(answers))*(4+8) +
		int64(len(pi))*8 +
		int64(len(scope))*4 +
		int64(maxVerdictConfigs)*int64(len(answers))*16
	return st
}

// CacheStats is a point-in-time snapshot of the answer-space cache. Hits and
// Misses count lookups of both kinds of entry; Entries and Bytes cover both
// kinds, Plans and PlanBytes say how much of them is assembled answer spaces.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Invalidated uint64 // entries evicted by mutation-scope intersection
	Entries     int
	Bytes       int64
	Plans       int   // assembled answer spaces among Entries
	PlanBytes   int64 // their share of Bytes
	MaxBytes    int64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// invalEvent is one applied mutation batch as the cache saw it, kept in a
// short ring so insertions racing an invalidation can be checked against
// the mutations that landed while they were being built.
type invalEvent struct {
	epoch uint64
	nodes []kg.NodeID // sorted touched set
}

// maxInvalEvents bounds the ring; a build that outlives this many batches
// simply is not cached (recomputable, and a sign the workload is write-bound
// anyway).
const maxInvalEvents = 256

// spaceCache is a concurrency-safe, memory-bounded LRU holding two kinds of
// entry under one byte budget and one validity rule: converged stages, keyed
// by stageKey, and assembled answer spaces — a whole compiled query graph
// with its shared per-candidate verdicts — keyed by planKey. Lookups and
// insertions take one short critical section; the heavy work (convergence,
// assembly, validation) always happens outside the lock, so concurrent
// misses on the same key may build twice — the first insert wins and both
// callers end up sharing it.
//
// Under a live graph the cache is kept coherent by invalidate(), called
// synchronously for every applied batch: entries whose scope intersects the
// batch's touched nodes are evicted — and only those, so roots disjoint
// from the mutated region keep their hits.
type spaceCache struct {
	maxBytes    int64
	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidated atomic.Uint64

	mu        sync.Mutex
	bytes     int64
	planBytes int64
	ll        *list.List // front = most recently used
	stages    map[stageKey]*list.Element
	plans     map[string]*list.Element
	events    []invalEvent // recent invalidations, oldest first
}

// cacheItem is one element of the LRU: a stage under its stageKey, or an
// answer space (plan non-nil) under its plan key.
type cacheItem struct {
	*cacheMeta
	stageKey stageKey
	planKey  string
	stage    *stageEntry
	plan     *answerSpace
}

func newSpaceCache(maxBytes int64) *spaceCache {
	return &spaceCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		stages:   make(map[stageKey]*list.Element),
		plans:    make(map[string]*list.Element),
	}
}

// getStage returns the cached stage for key, promoting it to most recently
// used, and counts the lookup. An entry built at an epoch later than the
// querying snapshot's is not served (the query must not observe writes newer
// than its snapshot); it stays cached for queries at or above its build
// epoch.
func (c *spaceCache) getStage(key stageKey, epoch uint64) *stageEntry {
	st := c.fetchStage(key, epoch)
	c.count(st != nil)
	return st
}

// fetchStage is getStage for a validation that needs a stage its plan was
// compiled from: the same lookup, uncounted — Hits and Misses say how
// compiles fared, and an execution fetching the stage of a compile already
// counted is not one.
func (c *spaceCache) fetchStage(key stageKey, epoch uint64) *stageEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.serve(c.stages[key], epoch); it != nil {
		return it.stage
	}
	return nil
}

// getPlan is getStage for an assembled answer space.
func (c *spaceCache) getPlan(key string, epoch uint64) *answerSpace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	it := c.serve(c.plans[key], epoch)
	c.mu.Unlock()
	c.count(it != nil)
	if it == nil {
		return nil
	}
	return it.plan
}

// serve is the lookup both kinds share: the element's entry, promoted, when
// it may be read at epoch. Callers hold c.mu.
func (c *spaceCache) serve(el *list.Element, epoch uint64) *cacheItem {
	if el == nil {
		return nil
	}
	it := el.Value.(*cacheItem)
	if it.epoch > epoch {
		return nil
	}
	c.ll.MoveToFront(el)
	return it
}

// count books one compile's lookup; a disabled cache looks nothing up.
func (c *spaceCache) count(hit bool) {
	switch {
	case c == nil:
	case hit:
		c.hits.Add(1)
		metSpaceHits.Inc()
	default:
		c.misses.Add(1)
		metSpaceMisses.Inc()
	}
}

// putStage inserts a freshly built stage and returns the canonical entry for
// the key: when a concurrent builder inserted first, its entry is kept (and
// returned) so every caller shares one verdict cache. Entries larger than
// the whole budget are returned uncached, as are entries whose scope was
// touched by a mutation applied after their build snapshot (the racing
// counterpart of invalidate).
func (c *spaceCache) putStage(key stageKey, st *stageEntry) *stageEntry {
	if c == nil {
		return st
	}
	return c.insert(&cacheItem{cacheMeta: &st.cacheMeta, stageKey: key, stage: st}).stage
}

// putPlan is putStage for an assembled answer space.
func (c *spaceCache) putPlan(key string, sp *answerSpace) *answerSpace {
	if c == nil {
		return sp
	}
	return c.insert(&cacheItem{cacheMeta: &sp.cacheMeta, planKey: key, plan: sp}).plan
}

func (c *spaceCache) insert(it *cacheItem) *cacheItem {
	if it.cost > c.maxBytes {
		return it
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range c.events {
		if ev.epoch <= it.epoch {
			continue
		}
		if scopeIntersects(it.scope, ev.nodes) {
			return it // stale before it was ever cached
		}
	}
	if len(c.events) == maxInvalEvents && c.events[0].epoch > it.epoch {
		// The ring no longer covers the build window; be conservative.
		return it
	}
	if el := c.slot(it); el != nil {
		prev := el.Value.(*cacheItem)
		if prev.epoch >= it.epoch {
			c.ll.MoveToFront(el)
			return prev
		}
		// The resident entry predates ours (a concurrent build on an older
		// snapshot won the insert); replace it.
		c.remove(el)
	}
	el := c.ll.PushFront(it)
	if it.plan != nil {
		c.plans[it.planKey] = el
		c.planBytes += it.cost
		it.plan.resident.Store(true)
	} else {
		c.stages[it.stageKey] = el
	}
	c.bytes += it.cost
	c.evict()
	return it
}

// evict removes least recently used entries until the budget holds.
// Callers hold c.mu.
func (c *spaceCache) evict() {
	for c.bytes > c.maxBytes && c.ll.Back() != nil {
		c.remove(c.ll.Back())
	}
}

// publishTerms installs a census's term table on an answer space the cache
// holds and charges its bytes to the space's cost, evicting as an insert
// does. A space the cache does not hold — never admitted, evicted, or no
// cache at all — publishes nothing: no budget would carry the bytes.
func (c *spaceCache) publishTerms(sp *answerSpace, pt *publishedTerms) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !sp.resident.Load() {
		return
	}
	if delta, ok := sp.installTerms(pt); ok {
		sp.cost += delta
		c.planBytes += delta
		c.bytes += delta
		c.evict()
	}
}

// slot is the resident element under the item's key, if any.
func (c *spaceCache) slot(it *cacheItem) *list.Element {
	if it.plan != nil {
		return c.plans[it.planKey]
	}
	return c.stages[it.stageKey]
}

// remove unlinks one element and returns its bytes to the budget. An
// answer space leaving the cache drops its published term tables with them.
func (c *spaceCache) remove(el *list.Element) {
	it := c.ll.Remove(el).(*cacheItem)
	c.bytes -= it.cost
	if sp := it.plan; sp != nil {
		delete(c.plans, it.planKey)
		c.planBytes -= it.cost
		sp.resident.Store(false)
		sp.cost -= sp.dropTerms()
	} else {
		delete(c.stages, it.stageKey)
	}
}

// scopeIntersects reports whether two sorted node lists share an element. A
// batch touches a handful of nodes and a scope holds thousands, and every
// batch is matched against every entry: few against many is a binary search
// per node of the short list, not a merge over the long one.
func scopeIntersects(a, b []kg.NodeID) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b)*bits.Len(uint(len(a))) < len(a) {
		for _, u := range b {
			if _, found := slices.BinarySearch(a, u); found {
				return true
			}
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// invalidate evicts every entry whose scope intersects the touched set of a
// mutation batch applied at epoch — selective by construction: an entry
// rooted in an untouched region survives and keeps serving hits. The event
// is recorded so concurrently building entries cannot re-insert stale state.
func (c *spaceCache) invalidate(touched []kg.NodeID, epoch uint64) {
	if c == nil || len(touched) == 0 {
		return
	}
	nodes := slices.Clone(touched)
	slices.Sort(nodes)
	lo, hi := nodes[0], nodes[len(nodes)-1]
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		// Range prefilter: scopes are sorted, so a batch entirely outside
		// [scope[0], scope[last]] cannot intersect — the common case under
		// regional churn, and it keeps the full merge off most entries.
		sc := el.Value.(*cacheItem).scope
		if len(sc) != 0 && hi >= sc[0] && sc[len(sc)-1] >= lo && scopeIntersects(sc, nodes) {
			c.remove(el)
			c.invalidated.Add(1)
			metSpaceInvalidated.Inc()
		}
		el = next
	}
	c.events = append(c.events, invalEvent{epoch: epoch, nodes: nodes})
	if len(c.events) > maxInvalEvents {
		c.events = c.events[len(c.events)-maxInvalEvents:]
	}
}

func (c *spaceCache) stats() CacheStats {
	if c == nil {
		return CacheStats{MaxBytes: -1}
	}
	c.mu.Lock()
	entries, bytes, plans, planBytes := c.ll.Len(), c.bytes, len(c.plans), c.planBytes
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
		Bytes:       bytes,
		Plans:       plans,
		PlanBytes:   planBytes,
		MaxBytes:    c.maxBytes,
	}
}
