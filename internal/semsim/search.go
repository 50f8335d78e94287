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

// ValidateStats reports the work done by a validation.
type ValidateStats struct {
	// Expansions counts the paths whose neighbour lists the search scanned.
	Expansions int
	// Fallbacks is always 0: the search has no fallback. The field stays
	// for benchmark/trace.go's probe and goes with ROADMAP item 2.
	Fallbacks int
}

// ValidatorConfig sets the correctness test of Eq. 3.
type ValidatorConfig struct {
	// MaxLen bounds path length; zero means 3 (the n-bounded default).
	MaxLen int
	// Tau is the correctness threshold; zero means 0.85.
	Tau float64
}

func (v ValidatorConfig) withDefaults() ValidatorConfig {
	if v.MaxLen <= 0 {
		v.MaxLen = 3
	}
	if v.Tau <= 0 {
		v.Tau = 0.85
	}
	return v
}

// A validation marks each requested answer asked, then reached once a path
// reaches it at similarity ≥ τ; every other node's mark is 0.
const (
	asked uint8 = 1 + iota
	reached
)

// marks is the free list of mark tables, addressed by NodeID: at most one
// per P, whatever the garbage collector does in between (a sync.Pool is
// emptied by every second collection, and a cold query triggers more than
// one). A table on the list is all zero: a validation clears exactly the
// marks it set. One byte per node is a small fraction of what the graph
// itself holds per node, so no table is too large to keep.
var marks = make(chan []uint8, runtime.GOMAXPROCS(0))

// Validate decides Eq. 3 for answers: correct[i] is set to whether some
// simple path of length ≤ MaxLen from us reaches answers[i] with Eq. 2
// similarity ≥ τ, scored exactly as Exhaustive scores it. answers are node
// ids of g and may repeat; correct must be as long as answers.
//
// The search enumerates paths depth first and extends one only while its
// log-sum L stays ≥ MaxLen·ln τ, less a slack of 1e-9 so that rounding never
// prunes a path that would score τ. Every predicate similarity is at most 1,
// so every edge adds a log ≤ 0 and no extension of a path scores above
// exp(L/MaxLen): a path under the bound cannot lead to a score ≥ τ. Which
// paths it expands does not depend on the answers asked for.
//
// ctx is polled before every expansion: the bound leaves few of them (a
// dbpedia-sim leg expands ≈ 40 paths), and each is a cut point. A cancelled
// call returns ctx's error, and its verdicts are incomplete: an answer set
// correct is correct, one left false carries no evidence.
func Validate(ctx context.Context, g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID,
	answers []kg.NodeID, correct []bool, cfg ValidatorConfig) (ValidateStats, error) {

	var mark []uint8
	select {
	case mark = <-marks:
	default:
	}
	if len(mark) < g.NumNodes() {
		// First use, or a graph that grew since the table's last one. The
		// old table was all zero, so nothing is carried over.
		mark = make([]uint8, g.NumNodes())
	}
	for _, a := range answers {
		mark[a] = asked
	}
	cfg = cfg.withDefaults()
	logRow := c.LogSimRow(queryPred)
	bound := float64(cfg.MaxLen)*math.Log(cfg.Tau) - 1e-9
	path := append(make([]kg.NodeID, 0, cfg.MaxLen+1), us)
	var stats ValidateStats
	var err error

	// extend scores every one-edge extension of the path, whose tip is u,
	// and recurses into those the bound lets through. It returns false once
	// ctx is cancelled.
	var extend func(u kg.NodeID, logSum float64) bool
	extend = func(u kg.NodeID, logSum float64) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		stats.Expansions++
		depth := len(path) // edges on an extension
		for _, he := range g.Neighbors(u) {
			if slices.Contains(path, he.To) {
				continue
			}
			ls := logSum + logRow[he.Pred]
			if mark[he.To] == asked && math.Exp(ls/float64(depth)) >= cfg.Tau {
				mark[he.To] = reached
			}
			if depth < cfg.MaxLen && ls >= bound {
				path = append(path, he.To)
				more := extend(he.To, ls)
				path = path[:depth]
				if !more {
					return false
				}
			}
		}
		return true
	}
	if len(answers) > 0 {
		extend(us, 0)
	}
	for i, a := range answers {
		correct[i] = mark[a] == reached
	}
	for _, a := range answers {
		mark[a] = 0
	}
	select {
	case marks <- mark:
	default:
	}
	return stats, err
}

// ValidateCtx is Validate in the form benchmark/trace.go's probe calls: π
// is ignored, and the verdicts come back as a slice parallel to answers.
// It goes with ROADMAP item 2.
func ValidateCtx(ctx context.Context, g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID,
	_ map[kg.NodeID]float64, answers []kg.NodeID, cfg ValidatorConfig) ([]bool, ValidateStats) {
	correct := make([]bool, len(answers))
	stats, _ := Validate(ctx, g, c, us, queryPred, answers, correct, cfg)
	return correct, stats
}
