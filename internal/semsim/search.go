package semsim

import (
	"context"
	"math"
	"runtime"
	"slices"

	"kgaq/internal/kg"
)

// Exhaustive enumerates every simple path of length ≤ n starting at us and
// returns, for each reached node, the maximum path similarity (Eq. 3) to the
// query predicate. It is the core of the SSB baseline (Algorithm 1): exact
// but exponential in n (O(mⁿ) with average degree m).
//
// The caller filters the returned map by answer type and threshold τ.
// g is the graph view to traverse (a live snapshot or the plain graph).
func Exhaustive(g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID, n int) map[kg.NodeID]float64 {
	best := map[kg.NodeID]float64{}
	if n <= 0 {
		return best
	}
	logRow := c.LogSimRow(queryPred)
	onPath := map[kg.NodeID]bool{us: true}

	// The path's Eq. 2 score is carried as a running log-sum, so scoring an
	// extension is O(1) instead of O(len).
	var dfs func(u kg.NodeID, depth int, logSum float64)
	dfs = func(u kg.NodeID, depth int, logSum float64) {
		for _, he := range g.Neighbors(u) {
			if onPath[he.To] {
				continue
			}
			ls := logSum + logRow[he.Pred]
			if s := math.Exp(ls / float64(depth+1)); s > best[he.To] {
				best[he.To] = s
			}
			if depth+1 < n {
				onPath[he.To] = true
				dfs(he.To, depth+1, ls)
				onPath[he.To] = false
			}
		}
	}
	dfs(us, 0, 0)
	return best
}

// ValidateResult is the outcome of greedy correctness validation for one
// answer: the best similarity among the paths found and how many distinct
// paths reached the answer.
type ValidateResult struct {
	Similarity float64
	Paths      int
}

// ValidateStats reports the work done by a Validate call.
type ValidateStats struct {
	Expansions int
	PathsFound int
	Fallbacks  int
}

// ValidatorConfig tunes greedy correctness validation (§IV-B2).
type ValidatorConfig struct {
	// Repeat factor r: an answer is declared incorrect only after r
	// plausible paths to it all fall below τ (more paths → fewer false
	// negatives, more time). Zero means the paper's default of 3.
	Repeat int
	// MaxLen bounds path length; zero means 3 (the n-bounded default).
	MaxLen int
	// Budget bounds total node expansions; zero means 200000.
	Budget int
	// Tau is the correctness threshold. A path with similarity ≥ Tau
	// settles the answer as correct immediately (the max in Eq. 3 can only
	// grow); only paths with similarity ≥ PlausibleFraction·Tau count
	// toward the r failures — junk paths through unrelated predicates carry
	// no evidence about the answer and must not exhaust the repeat budget.
	// Zero means 0.85.
	Tau float64
	// PlausibleFraction scales the evidence floor (zero means 0.6).
	PlausibleFraction float64
}

func (v ValidatorConfig) withDefaults() ValidatorConfig {
	if v.Repeat <= 0 {
		v.Repeat = 3
	}
	if v.MaxLen <= 0 {
		v.MaxLen = 3
	}
	if v.Budget <= 0 {
		v.Budget = 200000
	}
	if v.Tau <= 0 {
		v.Tau = 0.85
	}
	if v.PlausibleFraction <= 0 {
		v.PlausibleFraction = 0.6
	}
	return v
}

// pathRecord is one path of the greedy frontier, kept in the search's
// arena: its tip, the index of the path it extends by one edge (-1 for the
// start), and its Eq. 2 score as the running sum of log predicate
// similarities. A path's node sequence is its chain of parents, so pushing
// an extension copies nothing, and scoring one never re-walks the path.
type pathRecord struct {
	logSum float64
	parent int32
	tip    kg.NodeID
}

// frontierItem is one heap slot: the frontier path's arena index and the
// priority it is expanded by, π of its tip (paper: highest π first).
type frontierItem struct {
	priority float64
	rec      int32
}

// answerState is what the search knows of one requested answer: the result
// it reports, whether any path reached it (only then does the result appear
// in the returned map), and whether it is settled.
type answerState struct {
	res     ValidateResult
	node    kg.NodeID
	seen    bool
	settled bool
}

// search is the working memory of one validation: a slot table addressed by
// NodeID (slot[u] is 1 + the index of u's answerState, 0 for a node nobody
// asked about), the per-answer states, the path arena, the frontier heap and
// the node sequence of the path being expanded. The slot table is sized by
// the graph and recycled between calls, so it is all zero whenever the
// search is on the free list: release clears exactly the slots its call set.
type search struct {
	slot   []int32
	states []answerState
	recs   []pathRecord
	heap   []frontierItem
	path   []kg.NodeID
}

// searches is the free list: at most one search per P, whatever the garbage
// collector does in between (a sync.Pool is emptied by every second
// collection, and a cold query triggers more than one).
var searches = make(chan *search, runtime.GOMAXPROCS(0))

// searchKeepBytes bounds what the free list retains per search: one whose
// arrays hold more (a huge graph's slot table, a huge frontier) is left to
// the collector.
const searchKeepBytes = 6 << 20

func (s *search) bytes() int {
	return 4*cap(s.slot) + 24*cap(s.states) + 16*cap(s.recs) + 16*cap(s.heap) + 4*cap(s.path)
}

// getSearch returns a search whose slot table covers n node ids, all zero.
func getSearch(n int) *search {
	var s *search
	select {
	case s = <-searches:
	default:
		s = new(search)
	}
	if len(s.slot) < n {
		// First use, or a graph that grew since the search's last one. The
		// old table was all zero, so nothing is carried over.
		s.slot = make([]int32, n)
	}
	return s
}

// release zeroes the slots this call set and hands the search back.
func (s *search) release() {
	for _, st := range s.states {
		s.slot[st.node] = 0
	}
	s.states = s.states[:0]
	if s.bytes() > searchKeepBytes {
		return
	}
	select {
	case searches <- s:
	default:
	}
}

// push adds a frontier item, sifting it up exactly as container/heap does
// under "higher priority first", so the pop order — ties included — is the
// one the interface-based heap gave.
func (s *search) push(it frontierItem) {
	h := append(s.heap, it)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].priority > h[i].priority) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

// pop removes the highest-priority item: container/heap's Pop, swap the
// root to the end, sift the new root down, take the end.
func (s *search) pop() frontierItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].priority > h[j].priority {
			j = j2 // right child
		}
		if !(h[j].priority > h[i].priority) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// results is the returned map: one entry per requested answer a path
// reached or the fallback settled.
func (s *search) results() map[kg.NodeID]ValidateResult {
	n := 0
	for i := range s.states {
		if s.states[i].seen {
			n++
		}
	}
	res := make(map[kg.NodeID]ValidateResult, n)
	for i := range s.states {
		if st := &s.states[i]; st.seen {
			res[st.node] = st.res
		}
	}
	return res
}

// Validate performs greedy correctness validation (§IV-B2) for the given
// answers: a best-first search over simple paths from us, expanding the
// frontier path whose tip has the highest visiting probability π, recording
// every path that reaches a requested answer until each has r paths. The
// similarity reported per answer is the maximum Eq. 2 value over its found
// paths — a lower bound on the true Eq. 3 similarity, so validation can
// produce false negatives but never false positives (an answer whose true
// similarity is < τ can only yield paths with similarity < τ).
//
// Answers the guided search never reaches within budget fall back to a
// per-answer exhaustive search, keeping starvation from turning into false
// negatives wholesale.
func Validate(g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID, pi map[kg.NodeID]float64,
	answers []kg.NodeID, cfg ValidatorConfig) (map[kg.NodeID]ValidateResult, ValidateStats) {
	return ValidateCtx(context.Background(), g, c, us, queryPred, pi, answers, cfg)
}

// ctxCheckEvery is how many expansions pass between ctx polls in
// ValidateFunc; one expansion touches a node's whole neighbour list, so the
// poll amortises to noise while cancellation still lands within
// microseconds on real graphs.
const ctxCheckEvery = 64

// ValidateCtx is Validate with cancellation: ctx is polled inside the
// best-first search, and a cancelled call returns the verdicts settled so
// far without running the per-answer fallback. Callers must treat the
// result of a cancelled call as incomplete — absent answers carry no
// evidence of incorrectness.
func ValidateCtx(ctx context.Context, g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID,
	pi map[kg.NodeID]float64, answers []kg.NodeID, cfg ValidatorConfig) (map[kg.NodeID]ValidateResult, ValidateStats) {
	return ValidateFunc(ctx, g, c, us, queryPred, func(u kg.NodeID) float64 { return pi[u] }, answers, cfg)
}

// ValidateFunc is ValidateCtx with π read through a function — pi(u) is the
// expansion priority of a path whose tip is u, 0 for a node without one —
// so a caller holding π as a dense array needs no map. answers are node ids
// of g and may repeat.
func ValidateFunc(ctx context.Context, g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID,
	pi func(kg.NodeID) float64, answers []kg.NodeID, cfg ValidatorConfig) (map[kg.NodeID]ValidateResult, ValidateStats) {

	cfg = cfg.withDefaults()
	logRow := c.LogSimRow(queryPred)
	s := getSearch(g.NumNodes())
	defer s.release()
	for _, a := range answers {
		if s.slot[a] == 0 {
			s.states = append(s.states, answerState{node: a})
			s.slot[a] = int32(len(s.states))
		}
	}
	var stats ValidateStats

	remaining := len(s.states)
	floor := cfg.PlausibleFraction * cfg.Tau

	s.recs = append(s.recs[:0], pathRecord{parent: -1, tip: us})
	s.heap = s.heap[:0]
	s.push(frontierItem{priority: pi(us)})
	for len(s.heap) > 0 && remaining > 0 && stats.Expansions < cfg.Budget {
		if stats.Expansions%ctxCheckEvery == 0 && ctx.Err() != nil {
			return s.results(), stats
		}
		it := s.pop()
		path := s.path[:0]
		for r := it.rec; r >= 0; r = s.recs[r].parent {
			path = append(path, s.recs[r].tip)
		}
		s.path = path
		depth := len(path) - 1 // edges on the path so far
		if depth >= cfg.MaxLen {
			continue
		}
		stats.Expansions++
		base := s.recs[it.rec]
		for _, he := range g.Neighbors(base.tip) {
			if slices.Contains(path, he.To) {
				continue
			}
			logSum := base.logSum + logRow[he.Pred]
			if k := s.slot[he.To]; k != 0 && !s.states[k-1].settled {
				st := &s.states[k-1]
				sim := math.Exp(logSum / float64(depth+1))
				if sim > st.res.Similarity {
					st.res.Similarity = sim
				}
				st.seen = true
				stats.PathsFound++
				switch {
				case sim >= cfg.Tau:
					// Eq. 3 takes the maximum over matches: one path at or
					// above τ settles correctness for good.
					st.res.Paths++
					st.settled = true
					remaining--
				case sim >= floor:
					// A plausible near-miss: counts toward the r failures.
					st.res.Paths++
					if st.res.Paths >= cfg.Repeat {
						st.settled = true
						remaining--
					}
				default:
					// Junk path through unrelated predicates: no evidence.
				}
			}
			if depth+1 < cfg.MaxLen {
				s.recs = append(s.recs, pathRecord{logSum: logSum, parent: it.rec, tip: he.To})
				s.push(frontierItem{priority: pi(he.To), rec: int32(len(s.recs) - 1)})
			}
		}
	}

	// Fallback for answers the guided search never reached at all (their
	// Similarity is still zero; any found path, junk included, raises it).
	for _, a := range answers {
		if ctx.Err() != nil {
			return s.results(), stats
		}
		if st := &s.states[s.slot[a]-1]; st.res.Similarity == 0 {
			stats.Fallbacks++
			st.res, st.seen = ValidateResult{}, true
			if sim, ok := fallbackBest(g, c, us, queryPred, a, cfg.MaxLen); ok {
				st.res = ValidateResult{Similarity: sim, Paths: 1}
			}
		}
	}
	return s.results(), stats
}

// fallbackBest runs a depth-bounded exhaustive search for the single answer
// a, returning the best path similarity from us.
func fallbackBest(g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID, a kg.NodeID, maxLen int) (float64, bool) {
	logRow := c.LogSimRow(queryPred)
	best := -1.0
	// The path is at most maxLen nodes long, so membership is a short scan.
	path := make([]kg.NodeID, 1, maxLen+1)
	path[0] = us
	var dfs func(u kg.NodeID, depth int, logSum float64)
	dfs = func(u kg.NodeID, depth int, logSum float64) {
		for _, he := range g.Neighbors(u) {
			if slices.Contains(path, he.To) {
				continue
			}
			ls := logSum + logRow[he.Pred]
			if he.To == a {
				if s := math.Exp(ls / float64(depth+1)); s > best {
					best = s
				}
			}
			if depth+1 < maxLen {
				path = append(path, he.To)
				dfs(he.To, depth+1, ls)
				path = path[:len(path)-1]
			}
		}
	}
	dfs(us, 0, 0)
	if best < 0 {
		return 0, false
	}
	return best, true
}
