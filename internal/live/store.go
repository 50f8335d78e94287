package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kgaq/internal/kg"
)

// Event describes one applied batch, delivered synchronously (in epoch
// order) to OnApply hooks. Touched lists the nodes whose adjacency or type
// set changed — the scope the engine's answer-space cache intersects for
// selective invalidation. Attribute-only updates produce an empty Touched:
// a cached sampling space's distribution and verdicts hold no attribute
// data, so the space stays valid; what it keeps of attribute values (the
// term tables censuses publish on it) is keyed by the epoch that read them.
type Event struct {
	Epoch   uint64
	Ops     int
	Touched []kg.NodeID
}

// CompactEvent describes one completed compaction.
type CompactEvent struct {
	// Epoch is the store's epoch at swap time; content is unchanged.
	Epoch uint64
	// Folded is the number of delta nodes baked into the new base.
	Folded int
	// Elapsed is the wall-clock cost of the fold (materialise + replay).
	Elapsed time.Duration
}

// Store owns one live graph: the current Snapshot, the monotonic epoch
// counter, the batch log the compactor replays, and the registered hooks.
//
// Concurrency model: readers call Snapshot (one atomic load, never blocks)
// and keep the returned epoch-consistent view as long as they like. Writers
// (Apply) and the compactor serialise on an internal mutex; hooks run
// synchronously under it, so they observe events in epoch order and must be
// fast.
type Store struct {
	snap atomic.Pointer[Snapshot]

	mu      sync.Mutex
	log     []loggedBatch // batches since the current base, oldest first
	watch   chan struct{} // closed and replaced on every Apply
	applyFn []func(Event)

	compacting atomic.Bool
}

type loggedBatch struct {
	epoch uint64
	batch Batch
}

// NewStore wraps an immutable base graph as a live graph starting at the
// given epoch (the epoch a snapshot file recorded, or 0 for a fresh graph).
func NewStore(base *kg.Graph, epoch uint64) *Store {
	s := &Store{watch: make(chan struct{})}
	s.snap.Store(emptySnapshot(base, epoch))
	return s
}

// Snapshot returns the current epoch-consistent view. The returned Snapshot
// is immutable; later mutations produce new snapshots and never disturb it.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Epoch returns the current epoch.
func (s *Store) Epoch() uint64 { return s.Snapshot().epoch }

// OnApply registers a hook invoked synchronously after every applied batch,
// in epoch order. Register hooks before serving traffic.
func (s *Store) OnApply(fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyFn = append(s.applyFn, fn)
}

// Apply atomically applies a batch: either every mutation lands, the store
// advances exactly one epoch and the snapshot the batch created is
// returned, or nothing happens and the error names the offending mutation.
// In-flight readers are unaffected; the new epoch is visible to every
// Snapshot call that starts after Apply returns — the write half of
// read-your-writes.
func (s *Store) Apply(b Batch) (*Snapshot, error) {
	return s.applyHooked(b, nil)
}

// applyHooked is Apply with a commit gate: commit runs under the write lock
// after the batch validated, before the new snapshot becomes visible. An
// error from commit aborts the apply with the store unchanged — the seam
// Durable uses to make a batch durable strictly before readers can see it.
func (s *Store) applyHooked(b Batch, commit func(next *Snapshot) error) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	next, touched, err := applyBatch(cur, b)
	if err != nil {
		return nil, err
	}
	if commit != nil {
		if err := commit(next); err != nil {
			return nil, err
		}
	}
	// The log exists solely so a compaction in flight can replay batches
	// that land while it folds. With no fold running the batch is already
	// reflected in every future snapshot, so the log stays empty — without
	// this gate it would grow one entry per Apply forever on stores whose
	// delta never crosses the compactor's threshold. The ordering is safe
	// because Compact sets the compacting flag before capturing its fold
	// snapshot under this same mutex: an Apply that observes the flag unset
	// is fully visible to the capture, and one that starts after the
	// capture observes the flag set and logs itself.
	if s.compacting.Load() {
		s.log = append(s.log, loggedBatch{epoch: next.epoch, batch: b})
	} else if len(s.log) > 0 {
		s.log = nil
	}
	s.snap.Store(next)
	old := s.watch
	s.watch = make(chan struct{})
	close(old)
	ev := Event{Epoch: next.epoch, Ops: len(b), Touched: touched}
	for _, fn := range s.applyFn {
		fn(ev)
	}
	return next, nil
}

// WaitEpoch blocks until the store has reached at least the given epoch and
// returns a snapshot at or above it — the read half of read-your-writes.
// It returns ctx's error if cancelled first.
func (s *Store) WaitEpoch(ctx context.Context, epoch uint64) (*Snapshot, error) {
	for {
		snap := s.snap.Load()
		if snap.epoch >= epoch {
			return snap, nil
		}
		s.mu.Lock()
		ch := s.watch
		s.mu.Unlock()
		// Re-check: an Apply may have landed between the load and the lock.
		if snap = s.snap.Load(); snap.epoch >= epoch {
			return snap, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("live: waiting for epoch %d (at %d): %w", epoch, snap.epoch, ctx.Err())
		}
	}
}

// Compact folds the current delta into a fresh immutable base graph,
// preserving every id assignment, and swaps it in under the write lock.
// Batches applied while the fold ran are replayed onto the fresh base, so
// no write is lost and the epoch never moves. The expensive part — the
// materialise — runs outside the lock, off the query and write paths.
// Concurrent Compact calls coalesce: the loser returns immediately.
func (s *Store) Compact() (*CompactEvent, error) {
	if !s.compacting.CompareAndSwap(false, true) {
		return nil, nil
	}
	defer s.compacting.Store(false)

	begin := time.Now()
	// The fold snapshot is captured under the write mutex, after the
	// compacting flag is up: every batch either made it into this snapshot
	// or logged itself for the replay below (see Apply). A plain load here
	// could miss a batch mid-Apply that checked the flag before it rose.
	s.mu.Lock()
	snap := s.snap.Load()
	s.mu.Unlock()
	folded := snap.DeltaSize()
	if folded == 0 && len(snap.names) == 0 {
		return nil, nil
	}
	base, err := kg.Materialize(snap)
	if err != nil {
		return nil, fmt.Errorf("live: compact: %w", err)
	}

	s.mu.Lock()
	fresh := emptySnapshot(base, snap.epoch)
	var tail []loggedBatch
	for _, lb := range s.log {
		if lb.epoch <= snap.epoch {
			continue // folded into the new base
		}
		next, _, err := applyBatch(fresh, lb.batch)
		if err != nil {
			// Cannot happen for a batch that applied once already; bail out
			// without swapping rather than lose a write.
			s.mu.Unlock()
			return nil, fmt.Errorf("live: compact replay of epoch %d: %w", lb.epoch, err)
		}
		fresh = next
		tail = append(tail, lb)
	}
	s.log = tail
	s.snap.Store(fresh)
	s.mu.Unlock()

	return &CompactEvent{Epoch: fresh.epoch, Folded: folded, Elapsed: time.Since(begin)}, nil
}

// CompactorConfig tunes the background compactor.
type CompactorConfig struct {
	// Interval between fold checks (default 2s).
	Interval time.Duration
	// MinDelta skips folds while the delta covers fewer nodes (default 256).
	MinDelta int
	// OnError observes fold failures (default: ignored).
	OnError func(error)
}

func (c CompactorConfig) withDefaults() CompactorConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MinDelta <= 0 {
		c.MinDelta = 256
	}
	return c
}

// StartCompactor runs the background compactor until ctx is cancelled: every
// Interval it folds the delta into a fresh base iff the delta has grown past
// MinDelta nodes. It returns a function that stops the compactor and waits
// for a fold in progress to finish.
func (s *Store) StartCompactor(ctx context.Context, cfg CompactorConfig) (stop func()) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if s.Snapshot().DeltaSize() < cfg.MinDelta {
					continue
				}
				if _, err := s.Compact(); err != nil && cfg.OnError != nil {
					cfg.OnError(err)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
