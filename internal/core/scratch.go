package core

import (
	"runtime"

	"kgaq/internal/kg"
)

// execScratch is the reusable working memory of the draw→evaluate→fold hot
// loop: a one-shot execution's draw list and term table, the draw batch and
// the evaluation queue. One scratch serves one Refine/QueryMulti call at a
// time; the buffers are reset (re-sliced, never reallocated while capacity
// holds) at each use, and the whole struct returns to the free list when the
// call finishes, so steady-state refinement rounds allocate nothing on these
// paths. The allocation-budget tests in allocbudget_test.go enforce that
// property per stage.
type execScratch struct {
	// drawIdx is the draw list of a one-shot execution (Execution.oneShot):
	// lent for the call and taken back with it, so the list of a query that
	// dies with its Refine is not regrown round by round on every request.
	drawIdx []int
	// tab is the term table of a one-shot execution (bindTerms): its arrays
	// grow with candidates × specs and are lent and taken back like drawIdx.
	tab termTable
	// draws is the per-call alias-table draw batch (sampleMore).
	draws []int
	// freshIdx queues the distinct not-yet-known candidates of a round for
	// evaluation and verdicts, parallel to it, takes what is decided of them;
	// openAt lists the queue positions the plan's shared verdicts leave to
	// the batch validator, freshNodes is its input.
	freshIdx   []int
	verdicts   []bool
	openAt     []int
	freshNodes []kg.NodeID
	// every lists the candidate indices 0, 1, …: the census's evaluate
	// input, grown on demand and never rewritten.
	every []int
}

// candidates returns the indices of n candidates, 0 … n−1.
func (s *execScratch) candidates(n int) []int {
	for len(s.every) < n {
		s.every = append(s.every, len(s.every))
	}
	return s.every[:n]
}

// scratchFree is the free list: a bounded channel, not a sync.Pool. A pool
// is emptied by every second collection and keeps a returned object where
// only the returning P finds it; a server compiling answer spaces on cache
// misses collects more than once per query, so the pool handed out an empty
// scratch on most calls and its lists were regrown, doubling by
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

// scratchKeepDraws and scratchKeepBytes bound what the free list retains: a
// scratch whose draw list grew past this many draws (the default MaxDraws is
// 20 000; a request may lift it a thousandfold), or whose draw list and term
// table together hold more than this many bytes (the table grows with
// candidates × specs), is left to the collector instead of pinning its
// arrays. A dbpedia-sim query at the default MaxDraws holds at most ≈ 350 KB.
const (
	scratchKeepDraws = 1 << 15
	scratchKeepBytes = 1 << 20
)

func putScratch(s *execScratch) {
	if disableScratchPool || s == nil || cap(s.drawIdx) > scratchKeepDraws ||
		8*(cap(s.drawIdx)+cap(s.every))+s.tab.heldBytes() > scratchKeepBytes {
		return
	}
	select {
	case scratchFree <- s:
	default:
	}
}

// holdScratch attaches pooled scratch to the execution for the duration of
// one refinement entry point and returns the release. A nested holder sees
// the already-attached scratch and its release is a no-op, so only the
// outermost holder returns it to the free list. A one-shot execution that
// has drawn nothing yet also borrows its draw list from the scratch — and,
// at bindTerms, its term table — and leaves both there on release.
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
			// An adopted table's columns are the space's: the free list must
			// not pin them past an eviction.
			x.scr.tab.termCols = nil
			x.tab = nil
		}
		putScratch(x.scr)
		x.scr = nil
	}
}

// densePi is a stage's π scattered over an array addressed by NodeID, the
// form the greedy search reads expansion priorities in (legBatch). Slots
// outside the stage's scope hold 0, the π of a node the walk never visits.
type densePi []float64

// at is π(u), bounds-checked: the array is sized by the view the validation
// runs on, so an id past it is a node that view does not hold.
func (p densePi) at(u kg.NodeID) float64 {
	if int(u) < len(p) {
		return p[u]
	}
	return 0
}

// denseFree recycles arrays addressed by NodeID like scratchFree, one per
// P. A pooled array is all zeros; one longer than denseKeep slots is left to
// the collector.
type denseFree[T float64 | int32] chan []T

const denseKeep = 1 << 19

var piFree = make(denseFree[float64], runtime.GOMAXPROCS(0)) // scatterPi's

var slotFree = make(denseFree[int32], runtime.GOMAXPROCS(0)) // buildChainLevel's answer numbering

// take returns a pooled all-zero array of at least n slots.
func (f denseFree[T]) take(n int) []T {
	var a []T
	select {
	case a = <-f:
	default:
	}
	if len(a) < n {
		a = make([]T, n)
	}
	return a
}

// release zeroes the slots of a at nodes, the only ones its user set, and
// hands a back.
func (f denseFree[T]) release(a []T, nodes []kg.NodeID) {
	for _, u := range nodes {
		a[u] = 0
	}
	if len(a) > denseKeep {
		return
	}
	select {
	case f <- a:
	default:
	}
}

// scatterPi returns a pooled array of at least n slots holding pi[k] at
// scope[k] and 0 everywhere else; piFree.release hands it back.
func scatterPi(n int, scope []kg.NodeID, pi []float64) densePi {
	p := piFree.take(n)
	for k, u := range scope {
		p[u] = pi[k]
	}
	return p
}
