package httpapi

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/query"
)

// Plan-cache defaults; cmd/kgaqd overrides them from flags.
const (
	DefaultPlanCap = 128
	DefaultPlanTTL = 10 * time.Minute
)

// planEntry is one cached prepared plan.
type planEntry struct {
	id       string
	prepared *core.Prepared
	agg      *query.Aggregate
	created  time.Time
	lastUsed time.Time
	uses     uint64
}

// planCache is a TTL + LRU cache of prepared plans keyed by content id: the
// same query text under the same plan options maps to the same id, so
// clients can treat POST /v1/prepare as idempotent. Entries expire ttl
// after their last use and the capacity bound evicts least-recently-used
// plans first. All methods are safe for concurrent use.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

func newPlanCache(capacity int, ttl time.Duration) *planCache {
	if capacity <= 0 {
		capacity = DefaultPlanCap
	}
	if ttl <= 0 {
		ttl = DefaultPlanTTL
	}
	return &planCache{
		cap:   capacity,
		ttl:   ttl,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// planID derives the content id of a plan: the canonical (re-printed)
// query text plus the plan-relevant option fingerprint.
func planID(canonical, optFingerprint string) string {
	sum := sha256.Sum256([]byte(canonical + "\x00" + optFingerprint))
	return "p" + hex.EncodeToString(sum[:8])
}

// purgeLocked drops expired entries and enforces the capacity bound.
// Callers hold pc.mu.
func (pc *planCache) purgeLocked(now time.Time) {
	for el := pc.ll.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*planEntry)
		if now.Sub(e.lastUsed) > pc.ttl {
			pc.ll.Remove(el)
			delete(pc.items, e.id)
		}
		el = prev
	}
	for pc.ll.Len() > pc.cap {
		back := pc.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*planEntry)
		pc.ll.Remove(back)
		delete(pc.items, e.id)
	}
}

// put inserts (or refreshes) a plan under id and returns the resident
// entry.
func (pc *planCache) put(id string, p *core.Prepared, agg *query.Aggregate) *planEntry {
	now := time.Now()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.items[id]; ok {
		e := el.Value.(*planEntry)
		e.lastUsed = now
		pc.ll.MoveToFront(el)
		return e
	}
	e := &planEntry{id: id, prepared: p, agg: agg, created: now, lastUsed: now}
	pc.items[id] = pc.ll.PushFront(e)
	pc.purgeLocked(now)
	return e
}

// get returns the plan for id, refreshing its TTL, or nil when unknown or
// expired.
func (pc *planCache) get(id string) *planEntry {
	now := time.Now()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.purgeLocked(now)
	el, ok := pc.items[id]
	if !ok {
		return nil
	}
	e := el.Value.(*planEntry)
	e.lastUsed = now
	e.uses++
	pc.ll.MoveToFront(el)
	return e
}

// planJSON is one cached plan on the wire (/v1/prepare response and the
// /debug/plans listing).
type planJSON struct {
	ID          string  `json:"id"`
	Query       string  `json:"query"`
	Shape       string  `json:"shape"`
	Paths       int     `json:"paths"`
	HopBound    int     `json:"hop_bound"`
	Candidates  int     `json:"candidates"`
	Epoch       uint64  `json:"epoch"`
	EpochPolicy string  `json:"epoch_policy"`
	CacheHits   int     `json:"cache_hits"`
	CacheBuilt  int     `json:"cache_built"`
	Rebuilds    int     `json:"rebuilds,omitempty"`
	Uses        uint64  `json:"uses"`
	AgeS        float64 `json:"age_s"`
	IdleS       float64 `json:"idle_s"`
	TTLS        float64 `json:"ttl_s"`
}

// entryJSON renders one entry, taking the cache lock (uses/lastUsed are
// mutated under it by get/put).
func (pc *planCache) entryJSON(e *planEntry, now time.Time) planJSON {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.entryJSONLocked(e, now)
}

func (pc *planCache) entryJSONLocked(e *planEntry, now time.Time) planJSON {
	info := e.prepared.Plan()
	return planJSON{
		ID:          e.id,
		Query:       info.Query,
		Shape:       info.Shape.String(),
		Paths:       info.Paths,
		HopBound:    info.HopBound,
		Candidates:  info.Candidates,
		Epoch:       info.Epoch,
		EpochPolicy: info.EpochPolicy.String(),
		CacheHits:   info.CacheHits,
		CacheBuilt:  info.CacheBuilt,
		Rebuilds:    info.Rebuilds,
		Uses:        e.uses,
		AgeS:        now.Sub(e.created).Seconds(),
		IdleS:       now.Sub(e.lastUsed).Seconds(),
		TTLS:        pc.ttl.Seconds(),
	}
}

// snapshot lists the resident plans, most recently used first.
func (pc *planCache) snapshot() []planJSON {
	now := time.Now()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.purgeLocked(now)
	out := make([]planJSON, 0, pc.ll.Len())
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		out = append(out, pc.entryJSONLocked(el.Value.(*planEntry), now))
	}
	return out
}

// len reports the resident plan count (after purging expired entries).
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.purgeLocked(time.Now())
	return pc.ll.Len()
}

// optFingerprint canonicalises the plan-relevant request options for the
// content id: two prepare requests differing only in execution-level knobs
// (error bound, seed, …) map to the same plan.
func (qr *prepareRequest) optFingerprint() string {
	return fmt.Sprintf("tau=%g|policy=%s|min_epoch=%d", qr.Tau, qr.EpochPolicy, qr.MinEpoch)
}
