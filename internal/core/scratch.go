package core

import (
	"runtime"

	"kgaq/internal/estimate"
	"kgaq/internal/kg"
)

// execScratch is the reusable working memory of the draw→validate→estimate
// hot loop: observation lists, the multi-target value arena, draw batches,
// the batch-validation work queue and the generation-stamped candidate
// marks. One scratch serves one Refine/refineMulti call at a time; the
// buffers are reset (re-sliced to zero length, never reallocated while
// capacity holds) at each use, and the whole struct returns to the free
// list when the call finishes, so steady-state refinement rounds allocate
// nothing on these paths. The allocation-budget tests in
// allocbudget_test.go enforce that property per stage.
type execScratch struct {
	// drawIdx is the draw list of a one-shot execution (Execution.oneShot):
	// lent for the call and taken back with it, so the list of a query that
	// dies with its Refine is not regrown round by round on every request.
	drawIdx []int
	// obs is the per-round single-target observation list (observations).
	obs []estimate.Observation
	// base and labels serve the grouped path's shared base list and
	// per-draw group labels.
	base   []estimate.Observation
	labels []string
	// mobs is the per-round multi-target observation list; vals and has are
	// the flat |S|×K arena its Values/Has slices alias, so a round's whole
	// multi-target accumulation costs zero allocations.
	mobs []estimate.MultiObservation
	vals []float64
	has  []bool
	// proj is the per-spec projection target (estimate.ProjectInto).
	proj []estimate.Observation
	// draws is the per-call alias-table draw batch (sampleMore).
	draws []int
	// freshNodes/freshIdx queue the distinct not-yet-validated answers of a
	// round for the batch validator.
	freshNodes []kg.NodeID
	freshIdx   []int
	// marks de-duplicates candidate indices without a map: marks[i] == gen
	// means index i was seen in the current generation (beginMarks bumps
	// gen, so resetting costs nothing).
	marks []uint32
	gen   uint32
}

// scratchFree is the free list: a bounded channel, not a sync.Pool. A pool
// is emptied by every second collection and keeps a returned object where
// only the returning P finds it; a server compiling answer spaces on cache
// misses collects more than once per query, so the pool handed out an empty
// scratch on most calls and the observation list was regrown, doubling by
// doubling, exactly where allocation already set the pace of the collector
// (27% of all bytes allocated under churn). The channel keeps at most one
// scratch per P whatever the collector does; a put beyond that is dropped.
var scratchFree = make(chan *execScratch, runtime.GOMAXPROCS(0))

// disableScratchPool short-circuits the free list: every acquire returns a
// fresh zero scratch and nothing is recycled. The pooled-versus-unpooled
// equivalence tests flip it to prove pooling is behaviour-invisible.
var disableScratchPool = false

func getScratch() *execScratch {
	if !disableScratchPool {
		select {
		case s := <-scratchFree:
			return s
		default:
		}
	}
	return new(execScratch)
}

// scratchKeepDraws bounds what the free list retains: a scratch grown past
// this many draws (the default MaxDraws is 20 000; a request may lift it a
// thousandfold) is left to the collector instead of pinning its arrays.
const scratchKeepDraws = 1 << 15

func putScratch(s *execScratch) {
	if disableScratchPool || s == nil || cap(s.drawIdx) > scratchKeepDraws || cap(s.obs) > scratchKeepDraws ||
		cap(s.base) > scratchKeepDraws || cap(s.mobs) > scratchKeepDraws {
		return
	}
	select {
	case scratchFree <- s:
	default:
	}
}

// holdScratch attaches pooled scratch to the execution for the duration of
// one refinement entry point and returns the release. Nested refinement
// helpers (runExtreme, runGrouped) see the already-attached scratch and the
// release becomes a no-op for them, so only the outermost holder returns it
// to the free list. A one-shot execution that has drawn nothing yet also
// borrows its draw list from the scratch and leaves it there on release.
func (x *Execution) holdScratch() func() {
	if x.scr != nil {
		return func() {}
	}
	x.scr = getScratch()
	if x.oneShot && len(x.drawIdx) == 0 {
		x.drawIdx = x.scr.drawIdx[:0]
	}
	return func() {
		if x.oneShot {
			x.scr.drawIdx, x.drawIdx = x.drawIdx[:0], nil
		}
		putScratch(x.scr)
		x.scr = nil
	}
}

// beginMarks starts a new de-duplication generation over n candidates.
func (s *execScratch) beginMarks(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint32, n)
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 { // generation counter wrapped: clear once and restart
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.gen = 1
	}
}

// mark reports whether candidate index i is seen for the first time in the
// current generation.
func (s *execScratch) mark(i int) bool {
	if s.marks[i] == s.gen {
		return false
	}
	s.marks[i] = s.gen
	return true
}
