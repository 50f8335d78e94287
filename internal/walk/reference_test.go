package walk

import (
	"math"
	"math/rand"

	"kgaq/internal/kg"
)

// The walk as the paper defines it, kept as the reference the production π
// is held to: Eq. 5's transition matrix over a walker's scope, Eq. 6's power
// iteration over it, and Theorem 1's walking with rejection. ConvergeCtx
// needs none of it — the chain is reversible, so π is the closed form — and
// the tests below check that the closed form is where these land.

// refEntry is one transition of the reference matrix: to is a dense index
// into the walker's scope.
type refEntry struct {
	to int
	p  float64
}

// refMatrix builds Eq. 5 over w's scope, row i for the scope's i-th node:
// one entry per half-edge inside the bound, weighted by its predicate's
// similarity to the query predicate, plus the aperiodicity self-loop on the
// start node, each row normalised to sum to 1. A node that lists no
// neighbour inside the bound gets a probability-1 self-loop.
func refMatrix(w *Walker) [][]refEntry {
	pos := make(map[kg.NodeID]int, len(w.nodes))
	for i, u := range w.nodes {
		pos[u] = i
	}
	simRow := w.calc.SimRow(w.pred)
	rows := make([][]refEntry, len(w.nodes))
	for i, u := range w.nodes {
		var row []refEntry
		for _, he := range w.g.Neighbors(u) {
			if j, ok := pos[he.To]; ok {
				row = append(row, refEntry{j, simRow[he.Pred]})
			}
		}
		if u == w.start {
			row = append(row, refEntry{i, selfLoopSim})
		}
		if len(row) == 0 {
			row = append(row, refEntry{i, 1})
		}
		sum := 0.0
		for _, e := range row {
			sum += e.p
		}
		for k := range row {
			row[k].p /= sum
		}
		rows[i] = row
	}
	return rows
}

// refStep returns πP and the L1 change ‖πP − π‖₁.
func refStep(rows [][]refEntry, pi []float64) ([]float64, float64) {
	next := make([]float64, len(pi))
	for i, row := range rows {
		for _, e := range row {
			next[e.to] += pi[i] * e.p
		}
	}
	diff := 0.0
	for i := range next {
		diff += math.Abs(next[i] - pi[i])
	}
	return next, diff
}

// refPowerIterate is Eq. 6: π ← πP from all mass on the start node (which
// leads the scope) until the L1 change falls below tol or maxIter sweeps
// pass.
func refPowerIterate(rows [][]refEntry, tol float64, maxIter int) []float64 {
	pi := make([]float64, len(rows))
	pi[0] = 1
	for it := 0; it < maxIter; it++ {
		next, diff := refStep(rows, pi)
		pi = next
		if diff < tol {
			break
		}
	}
	return pi
}

// refSampleByWalk collects k answer visits by walking the chain of rows
// with the walking-with-rejection policy of §IV-A2(2), after burnIn steps:
// a step picks a listed transition uniformly and accepts it with
// probability proportional to its weight. An answer is a visited node other
// than the start that shares a type with targetTypes.
func refSampleByWalk(w *Walker, rows [][]refEntry, r *rand.Rand, targetTypes []kg.TypeID, burnIn, k int) []kg.NodeID {
	cur := 0 // the start node leads the scope
	step := func() {
		row := rows[cur]
		maxP := 0.0
		for _, e := range row {
			maxP = max(maxP, e.p)
		}
		for {
			e := row[r.Intn(len(row))]
			if r.Float64()*maxP <= e.p {
				cur = e.to
				return
			}
		}
	}
	for i := 0; i < burnIn; i++ {
		step()
	}
	var out []kg.NodeID
	for guard, limit := 0, (burnIn+1)*(k+1)*1000; len(out) < k && guard < limit; guard++ {
		step()
		if u := w.nodes[cur]; u != w.start && w.g.SharesType(u, targetTypes) {
			out = append(out, u)
		}
	}
	return out
}
