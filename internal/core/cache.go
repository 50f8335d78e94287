package core

import (
	"container/list"
	"fmt"
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
	root     kg.NodeID
	pred     kg.PredID
	types    string // sorted target TypeIDs, encoded
	n        int
	selfLoop float64
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

// stageEntry is one cached converged stage: the renormalised answer
// distribution π′, the full stationary map (the validator's expansion
// priorities), and one leg-verdict cache per validator configuration.
// answers/probs/piMap are immutable after construction and read lock-free;
// verdicts is guarded by mu and grows as queries validate answers, so
// repeated queries skip both convergence and re-validation.
//
// For live graphs the entry additionally records the epoch it was built at
// and its scope — the sorted node set of the walk's n-bound. A mutation
// invalidates the entry iff it touches a scope node: everything the stage
// caches (transition rows, π, verdict paths of length ≤ n) is a function of
// the scope's topology and types alone, so snapshots whose mutations all
// land outside the scope share the entry soundly.
type stageEntry struct {
	answers []kg.NodeID
	probs   []float64
	piMap   map[kg.NodeID]float64
	cost    int64

	epoch uint64
	scope []kg.NodeID // sorted; the walk's n-bounded node set

	mu       sync.Mutex
	verdicts map[verdictKey]*verdictTable
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

func newStageEntry(answers []kg.NodeID, probs []float64, piMap map[kg.NodeID]float64,
	epoch uint64, scope []kg.NodeID) *stageEntry {
	st := &stageEntry{
		answers:  answers,
		probs:    probs,
		piMap:    piMap,
		epoch:    epoch,
		scope:    scope,
		verdicts: make(map[verdictKey]*verdictTable),
	}
	// Approximate resident bytes: the distribution slices, the π map, the
	// scope list, and headroom for the verdict tables to fill in (9 bytes
	// per open-addressing slot at ≤75% load per possible validator
	// configuration) — the worst case the maxVerdictConfigs cap allows, so
	// the LRU budget stays honest as verdicts accumulate.
	st.cost = 256 +
		int64(len(answers))*(4+8) +
		int64(len(piMap))*48 +
		int64(len(scope))*4 +
		int64(maxVerdictConfigs)*int64(len(answers))*16
	return st
}

// CacheStats is a point-in-time snapshot of the answer-space cache.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Invalidated uint64 // entries evicted by mutation-scope intersection
	Entries     int
	Bytes       int64
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

// spaceCache is a concurrency-safe, memory-bounded LRU of converged stages.
// Lookups and insertions take one short critical section; the heavy work
// (convergence, validation) always happens outside the lock, so concurrent
// misses on the same key may build the stage twice — the first insert wins
// and both callers end up sharing it.
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

	mu     sync.Mutex
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[stageKey]*list.Element
	events []invalEvent // recent invalidations, oldest first
}

type cacheItem struct {
	key   stageKey
	entry *stageEntry
}

func newSpaceCache(maxBytes int64) *spaceCache {
	return &spaceCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[stageKey]*list.Element),
	}
}

// get returns the cached stage for key, promoting it to most recently used.
// A stage built at an epoch later than the querying snapshot's is not
// served (the query must not observe writes newer than its snapshot); the
// entry stays cached for queries at or above its build epoch.
func (c *spaceCache) get(key stageKey, epoch uint64) *stageEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	el, ok := c.items[key]
	var st *stageEntry
	if ok {
		st = el.Value.(*cacheItem).entry
		if st.epoch > epoch {
			st = nil
		} else {
			c.ll.MoveToFront(el)
		}
	}
	c.mu.Unlock()
	if st == nil {
		c.misses.Add(1)
		metSpaceMisses.Inc()
		return nil
	}
	c.hits.Add(1)
	metSpaceHits.Inc()
	return st
}

// put inserts a freshly built stage and returns the canonical entry for the
// key: when a concurrent builder inserted first, its entry is kept (and
// returned) so every caller shares one verdict cache. Entries larger than
// the whole budget are returned uncached, as are entries whose scope was
// touched by a mutation applied after their build snapshot (the racing
// counterpart of invalidate).
func (c *spaceCache) put(key stageKey, st *stageEntry) *stageEntry {
	if c == nil || st.cost > c.maxBytes {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range c.events {
		if ev.epoch <= st.epoch {
			continue
		}
		if scopeIntersects(st.scope, ev.nodes) {
			return st // stale before it was ever cached
		}
	}
	if len(c.events) == maxInvalEvents && c.events[0].epoch > st.epoch {
		// The ring no longer covers the build window; be conservative.
		return st
	}
	if el, ok := c.items[key]; ok {
		prev := el.Value.(*cacheItem).entry
		if prev.epoch >= st.epoch {
			c.ll.MoveToFront(el)
			return prev
		}
		// The resident entry predates ours (a concurrent build on an older
		// snapshot won the insert); replace it.
		c.ll.Remove(el)
		delete(c.items, key)
		c.bytes -= prev.cost
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, entry: st})
	c.bytes += st.cost
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		it := back.Value.(*cacheItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.entry.cost
	}
	return st
}

// scopeIntersects reports whether two sorted node lists share an element.
func scopeIntersects(a, b []kg.NodeID) bool {
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
// is recorded so concurrently building stages cannot re-insert stale state.
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
		it := el.Value.(*cacheItem)
		// Range prefilter: scopes are sorted, so a batch entirely outside
		// [scope[0], scope[last]] cannot intersect — the common case under
		// regional churn, and it keeps the full merge off most entries.
		sc := it.entry.scope
		if len(sc) == 0 || hi < sc[0] || sc[len(sc)-1] < lo {
			el = next
			continue
		}
		if scopeIntersects(sc, nodes) {
			c.ll.Remove(el)
			delete(c.items, it.key)
			c.bytes -= it.entry.cost
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
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
		Bytes:       bytes,
		MaxBytes:    c.maxBytes,
	}
}
