package semsim

import (
	"fmt"
	"math"

	"kgaq/internal/embedding"
	"kgaq/internal/kg"
)

// DefaultFloor is the minimum predicate similarity. Raw cosines can be zero
// or negative; clamping to a small positive floor keeps every transition
// probability nonzero, which Lemma 1 (irreducibility of the semantic-aware
// walk) relies on.
const DefaultFloor = 0.01

// Calculator holds the full P×P predicate-similarity matrix for one graph
// and embedding model, precomputed once at construction (P is the predicate
// vocabulary — small — so the matrix is a handful of kilobytes even on large
// graphs). After NewCalculator the Calculator is immutable and safe for
// unrestricted concurrent use; one Calculator is shared by every query an
// engine serves.
type Calculator struct {
	g     kg.ReadGraph
	floor float64
	nPred int
	// sim and logSim are flat row-major P×P matrices: sim[a*P+b] is the
	// clamped Eq. 4 similarity of predicates a and b, logSim its natural
	// log (the form Eq. 2's geometric mean consumes).
	sim    []float64
	logSim []float64
}

// NewCalculator builds a Calculator with the given similarity floor
// (DefaultFloor when floor <= 0), precomputing the full predicate-similarity
// matrix. The matrix depends only on the predicate vocabulary, which live
// graphs keep frozen, so one Calculator serves every snapshot of a live
// graph; traversal helpers (Exhaustive, Validate) take the snapshot to
// walk explicitly.
func NewCalculator(g kg.ReadGraph, model embedding.Model, floor float64) (*Calculator, error) {
	if g == nil || model == nil {
		return nil, fmt.Errorf("semsim: nil graph or model")
	}
	if floor <= 0 {
		floor = DefaultFloor
	}
	if floor >= 1 {
		return nil, fmt.Errorf("semsim: floor %v must be below 1", floor)
	}
	p := g.NumPredicates()
	c := &Calculator{
		g:      g,
		floor:  floor,
		nPred:  p,
		sim:    make([]float64, p*p),
		logSim: make([]float64, p*p),
	}
	for a := 0; a < p; a++ {
		c.sim[a*p+a] = 1
		for b := a + 1; b < p; b++ {
			s := embedding.PredicateSimilarity(model, kg.PredID(a), kg.PredID(b))
			if s < floor {
				s = floor
			}
			if s > 1 {
				s = 1
			}
			c.sim[a*p+b] = s
			c.sim[b*p+a] = s
		}
	}
	for i, s := range c.sim {
		c.logSim[i] = math.Log(s)
	}
	return c, nil
}

// Graph returns the graph the Calculator was built over. For a live graph
// this is the construction-time view; traversals that must observe a
// specific epoch pass their snapshot explicitly instead.
func (c *Calculator) Graph() kg.ReadGraph { return c.g }

// Floor returns the similarity floor in effect.
func (c *Calculator) Floor() float64 { return c.floor }

// PredSim returns the clamped cosine similarity between predicates a and b
// (Eq. 4), in [floor, 1] — a single index into the precomputed matrix.
func (c *Calculator) PredSim(a, b kg.PredID) float64 {
	return c.sim[int(a)*c.nPred+int(b)]
}

// SimRow returns the precomputed similarity row of predicate p: SimRow(p)[q]
// is PredSim(p, q). The returned slice is shared and must not be modified.
func (c *Calculator) SimRow(p kg.PredID) []float64 {
	return c.sim[int(p)*c.nPred : (int(p)+1)*c.nPred]
}

// LogSimRow returns the natural-log similarity row of predicate p, the form
// the path searches' incremental Eq. 2 scoring consumes. The returned
// slice is shared and must not be modified.
func (c *Calculator) LogSimRow(p kg.PredID) []float64 {
	return c.logSim[int(p)*c.nPred : (int(p)+1)*c.nPred]
}

// PathSim returns the semantic similarity of a subgraph match whose path
// carries the given predicates, against the query predicate (Eq. 2): the
// geometric mean of per-edge predicate similarities. An empty path has
// similarity 0 (no match).
func (c *Calculator) PathSim(queryPred kg.PredID, preds []kg.PredID) float64 {
	if len(preds) == 0 {
		return 0
	}
	// Work in log space: geometric mean of l factors.
	row := c.LogSimRow(queryPred)
	logSum := 0.0
	for _, p := range preds {
		logSum += row[p]
	}
	return math.Exp(logSum / float64(len(preds)))
}
