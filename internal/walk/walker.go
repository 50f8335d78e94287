package walk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"kgaq/internal/kg"
	"kgaq/internal/semsim"
	"kgaq/internal/stats"
)

// ErrNotConverged is returned by samplers that need the stationary
// distribution before ConvergeCtx has succeeded. Callers own the
// convergence step, and with it its cancellation.
var ErrNotConverged = errors.New("walk: stationary distribution not converged")

// ErrAsymmetric is ConvergeCtx's verdict on a scope whose adjacency lists
// some edge at one end only. The walk's chain is then not reversible and the
// closed-form π is not its stationary distribution. A stored edge always
// shows at both ends, so this is a fault in the data, not a property of a
// query.
var ErrAsymmetric = errors.New("walk: adjacency is not symmetric")

// tol bounds the L1 residual ‖πP − π‖₁ of the closed form; floating-point
// slack on a symmetric scope stays orders of magnitude below it.
const tol = 1e-10

// selfLoopSim is the predicate similarity of the virtual self-loop on the
// start node that makes the chain aperiodic (Eq. 5: 0.001).
const selfLoopSim = 0.001

// Config tunes the semantic-aware walker.
type Config struct {
	// N is the hop bound of the walk's scope (default 3; §VII finds 99% of
	// correct answers within 3 hops).
	N int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 3
	}
	return c
}

// Walker is the semantic-aware Markov chain over one bounded subgraph,
// specialised to one query predicate. Build with New, call ConvergeCtx,
// then sample answers.
//
// New keeps only what the stationary distribution needs: the scope in BFS
// order, a NodeID-addressed dense index, and per node the weighted degree
// W(i) and the weight arriving at it. The transition matrix of Eq. 5 is
// never built.
type Walker struct {
	g     kg.ReadGraph
	calc  *semsim.Calculator
	start kg.NodeID
	pred  kg.PredID
	cfg   Config

	nodes []kg.NodeID // dense index → NodeID (BFS discovery order)
	index []int32     // NodeID → dense index + 1; 0 outside the scope

	// rowWeight[i] is the unnormalised weight mass of row i (Σ sim + the
	// start self-loop) — the weighted degree W(i) that ConvergeCtx turns
	// into the closed-form π. inWeight[j] is the same mass summed by target:
	// Σᵢ w(i,j), against which ConvergeCtx checks the closed form.
	rowWeight []float64
	inWeight  []float64

	pi []float64 // stationary distribution (after ConvergeCtx)

	mem *arena // backs every array above; see Release
}

// arena is the working memory of one Walker. The engine keeps a walker only
// for one stage build — converge, copy π′ out, drop — and that build runs on
// every answer-space cache miss, so the arrays are recycled through Release
// instead of left to the collector. index is addressed by NodeID and so
// sized by the graph; it is all zero whenever the arena is on the free list.
// The rest is sized by the scope.
type arena struct {
	index                   []int32
	nodes                   []kg.NodeID
	cand                    []int32
	rowWeight, inWeight, pi []float64
}

// arenas is the free list: at most one arena per P, whatever the garbage
// collector does in between (a sync.Pool is emptied by every second
// collection, and a cold query triggers more than one).
var arenas = make(chan *arena, runtime.GOMAXPROCS(0))

// arenaKeepBytes bounds what the free list retains per arena: one whose
// arrays hold more (a huge graph's index, a huge scope's arrays) is left to
// the collector.
const arenaKeepBytes = 6 << 20

// bytes is the memory the arena's arrays hold.
func (a *arena) bytes() int {
	return 4*(cap(a.index)+cap(a.nodes)+cap(a.cand)) +
		8*(cap(a.rowWeight)+cap(a.inWeight)+cap(a.pi))
}

func getArena() *arena {
	select {
	case a := <-arenas:
		return a
	default:
		return new(arena)
	}
}

// sized returns buf resliced to n zeroed elements, reallocating only when
// its capacity is short.
func sized[T int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Release hands the walker's arrays back for the next New. It is optional —
// an unreleased walker is ordinary garbage, its arena with it — and final:
// the walker, and every slice obtained from it (Scope included), must not be
// used afterwards. Results already copied out (AnswerDistribution, PiMap)
// stay valid.
//
// The next scope is whatever the index says it is, so Release zeroes exactly
// the slots this walker set — by walking its scope, not the graph.
func (w *Walker) Release() {
	mem, nodes := w.mem, w.nodes
	*w = Walker{}
	if mem == nil || mem.bytes() > arenaKeepBytes {
		return
	}
	for _, u := range nodes {
		mem.index[u] = 0
	}
	select {
	case arenas <- mem:
	default:
	}
}

// New builds the walker: finds the n-bounded scope around start and, in one
// pass over the scope's half-edges, the weighted degrees of Eq. 5's
// transition matrix with the aperiodicity self-loop — all ConvergeCtx needs.
//
// g is the graph view the walk runs on. For a live graph this is one
// epoch's snapshot: the pass reads delta-overridden adjacency for mutated
// nodes and falls through to the compacted base's slices for everything
// else, so an in-flight query keeps one consistent topology no matter how
// many mutations land while it runs. calc must share g's predicate
// vocabulary (live graphs freeze it, so the engine-wide calculator always
// qualifies).
func New(g kg.ReadGraph, calc *semsim.Calculator, start kg.NodeID, queryPred kg.PredID, cfg Config) (*Walker, error) {
	if calc == nil {
		return nil, fmt.Errorf("walk: nil similarity calculator")
	}
	if g == nil {
		g = calc.Graph()
	}
	cfg = cfg.withDefaults()
	if start < 0 || int(start) >= g.NumNodes() {
		return nil, fmt.Errorf("walk: start node %d out of range", start)
	}
	if queryPred < 0 || int(queryPred) >= g.NumPredicates() {
		return nil, fmt.Errorf("walk: query predicate %d out of range", queryPred)
	}

	mem := getArena()
	if len(mem.index) < g.NumNodes() {
		// First use, or a graph that grew since the arena's last one. The
		// old index was all zero, so nothing is carried over.
		mem.index = make([]int32, g.NumNodes())
	}
	index := mem.index

	// The scope, in the discovery order of kg.BFS: nodes doubles as the
	// queue, and the frontier of each depth is the stretch discovered at the
	// previous one.
	nodes := append(mem.nodes[:0], start)
	index[start] = 1
	for lo, depth := 0, 1; depth <= cfg.N && lo < len(nodes); depth++ {
		hi := len(nodes)
		for _, u := range nodes[lo:hi] {
			for _, he := range g.Neighbors(u) {
				if index[he.To] != 0 {
					continue
				}
				nodes = append(nodes, he.To)
				index[he.To] = int32(len(nodes))
			}
		}
		lo = hi
	}
	mem.nodes = nodes

	// Weighted degrees. The query predicate's similarity row is a single
	// precomputed slice, so scoring an edge is one index. Every weight w(i,j)
	// of the matrix is added once to its row's mass and once to its target's.
	// The in-bound test is a bit mask, not a branch: a half-edge leaving the
	// bound (index 0) adds +0 to its row's mass, which leaves every sum
	// bit-identical (no sum is ever −0), and its weight lands in the sink
	// slot in[0], which nothing reads. A mask, unlike a multiplication by 0,
	// stays exact for a NaN or infinite similarity.
	n := len(nodes)
	mem.rowWeight, mem.inWeight = sized(mem.rowWeight, n), sized(mem.inWeight, n+1)
	rowWeight, in := mem.rowWeight, mem.inWeight
	inWeight := in[1:] // inWeight[j-1] is in[j]
	simRow := calc.SimRow(queryPred)
	for i, u := range nodes {
		sum, entries := 0.0, int32(0)
		for _, he := range g.Neighbors(u) {
			j := index[he.To]
			inBound := min(j, 1) // the neighbour is inside the n-bound
			s := math.Float64frombits(math.Float64bits(simRow[he.Pred]) & -uint64(inBound))
			sum += s
			in[j] += s
			entries += inBound
		}
		if u == start {
			sum += selfLoopSim
			inWeight[i] += selfLoopSim
			entries++
		}
		if entries == 0 {
			// A node that lists no neighbour inside the bound: probability-1
			// self-loop.
			sum = 1
			inWeight[i] += 1
		}
		rowWeight[i] = sum
	}
	return &Walker{
		g: g, calc: calc, start: start, pred: queryPred, cfg: cfg,
		nodes: nodes, index: index,
		rowWeight: rowWeight, inWeight: inWeight,
		mem: mem,
	}, nil
}

// Size returns the number of nodes in the walk's scope.
func (w *Walker) Size() int { return len(w.nodes) }

// Scope returns the nodes of the walk's n-bounded scope in BFS discovery
// order, the start node first. The slice is the walker's own: read-only, and
// invalid after Release.
func (w *Walker) Scope() []kg.NodeID { return w.nodes }

// ConvergeCtx computes the stationary distribution π. It returns 1, the
// single pass it takes, and is a no-op once it has succeeded.
//
// The chain's transition weights are symmetric — both half-edges of a
// stored edge carry the same predicate, Eq. 4 similarity is symmetric, and
// the aperiodicity self-loop is trivially symmetric — so the walk is a
// reversible Markov chain on a connected weighted graph (the n-bound is
// connected by construction: BFS only admits nodes reached through in-bound
// edges). Its stationary distribution therefore has the closed form
// π(i) = W(i)/ΣⱼW(j) with W the weighted degree (detailed balance:
// π(i)·w(i,j)/W(i) = π(j)·w(j,i)/W(j)), which is where the power iteration
// of Eq. 6 converges.
//
// The closed form is checked without a matrix. One step of the chain from
// it puts on node j the mass
//
//	πP(j) = Σᵢ (W(i)/ΣW) · (w(i,j)/W(i)) = Σᵢ w(i,j)/ΣW = inW(j)/ΣW,
//
// where inW(j) is the weight arriving at j. New summed it next to W, every
// entry of P once: a half-edge i→j inside the bound adds its similarity to
// W(i) and to inW(j), the start's self-loop adds selfLoopSim to both
// W(start) and inW(start), a probability-1 self-loop adds 1 to both. So
// Σⱼ|inW(j) − W(j)|/ΣW is ‖πP − π‖₁ up to rounding. When it reaches tol some
// half-edge of the scope has no mirror, and ConvergeCtx returns
// ErrAsymmetric without storing π.
//
// A cancelled ctx returns its error, also without storing π; the walker
// stays usable.
func (w *Walker) ConvergeCtx(ctx context.Context) (int, error) {
	if w.pi != nil {
		return 1, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("walk: convergence interrupted: %w", err)
	}
	mem := w.mem
	mem.pi = sized(mem.pi, len(w.nodes))
	pi := mem.pi
	totalW := 0.0
	for _, wt := range w.rowWeight {
		totalW += wt
	}
	diff := 0.0
	for i, wt := range w.rowWeight {
		pi[i] = wt / totalW
		diff += math.Abs(w.inWeight[i] - wt)
	}
	if residual := diff / totalW; !(residual < tol) {
		return 0, fmt.Errorf("%w: the closed-form π over the %d-node scope of %q is %.3g off stationary",
			ErrAsymmetric, len(w.nodes), w.g.Name(w.start), residual)
	}
	w.pi = pi
	return 1, nil
}

// PiMap copies the stationary distribution into a map keyed by NodeID.
// Outside tests its one caller is the benchmark module's validation probe
// (benchmark/trace.go), which hands it to semsim.ValidateCtx; that
// adapter ignores it, and both go with ROADMAP item 2.
func (w *Walker) PiMap() map[kg.NodeID]float64 {
	out := make(map[kg.NodeID]float64, len(w.nodes))
	for i, u := range w.nodes {
		out[u] = w.pi[i]
	}
	return out
}

// AnswerDist is the stationary distribution restricted to candidate answers
// and renormalised (π′ of §IV-A2(3)); answers are drawn i.i.d. from it.
type AnswerDist struct {
	Answers []kg.NodeID
	Probs   []float64 // parallel to Answers; sums to 1

	// The alias table is built on the first Sample: the engine keeps only
	// Answers and Probs of a stage and never draws from the distribution.
	aliasOnce sync.Once
	alias     *stats.Alias
}

// AnswerDistribution extracts π′ over the candidate answers: nodes of the
// bounded subgraph sharing a type with the target (excluding the start
// node). It returns ErrNotConverged when ConvergeCtx has not succeeded
// (the caller owns convergence and its cancellation), and an error when no
// candidate answer has positive stationary probability. The engine uses
// AnswerDistributionFunc; outside tests this type-list form's one caller is
// benchmark/trace.go, and it goes once that moves onto the predicate form.
func (w *Walker) AnswerDistribution(targetTypes []kg.TypeID) (*AnswerDist, error) {
	return w.AnswerDistributionFunc(func(u kg.NodeID) bool { return w.g.SharesType(u, targetTypes) })
}

// AnswerDistributionFunc is AnswerDistribution with the candidate test
// given as a predicate: isCandidate(u) must say whether u shares a type
// with the target. A caller building many walkers over one view for one
// type set answers it from a precomputed bitmap instead of the graph's
// per-node type lists.
func (w *Walker) AnswerDistributionFunc(isCandidate func(kg.NodeID) bool) (*AnswerDist, error) {
	if w.pi == nil {
		return nil, ErrNotConverged
	}
	// Candidates are collected in arena scratch first, so the returned
	// slices — which the engine's stage cache keeps — are exactly as long as
	// the answer set, not as long as the scope.
	cand := w.mem.cand[:0]
	total := 0.0
	for i, u := range w.nodes {
		if u == w.start {
			continue
		}
		if !isCandidate(u) {
			continue
		}
		if w.pi[i] <= 0 {
			continue
		}
		cand = append(cand, int32(i))
		total += w.pi[i]
	}
	w.mem.cand = cand
	if len(cand) == 0 || !(total > 0 && total <= math.MaxFloat64) {
		return nil, fmt.Errorf("walk: no candidate answers with positive visiting probability in %d-bounded scope", w.cfg.N)
	}
	ans := make([]kg.NodeID, len(cand))
	probs := make([]float64, len(cand))
	for k, i := range cand {
		ans[k] = w.nodes[i]
		probs[k] = w.pi[i] / total
	}
	return &AnswerDist{Answers: ans, Probs: probs}, nil
}

// Len returns the number of candidate answers with positive probability.
func (d *AnswerDist) Len() int { return len(d.Answers) }

// Sample draws k answer indices i.i.d. from π′ (continuous sampling,
// Theorem 1), one 64-bit word of r per draw. Indices refer to d.Answers.
// It panics when Probs is not a distribution stats.NewAlias accepts, which
// AnswerDistribution never returns.
func (d *AnswerDist) Sample(r *rand.Rand, k int) []int {
	d.aliasOnce.Do(func() { d.alias = stats.NewAlias(d.Probs) })
	out := make([]int, k)
	for i := range out {
		out[i] = d.alias.Pick(r.Uint64())
	}
	return out
}
