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
// distribution before Converge/ConvergeCtx has run. Callers own the
// convergence step so a cancelled query can never fall into an unbounded
// context-free iteration.
var ErrNotConverged = errors.New("walk: stationary distribution not converged")

// Config tunes the semantic-aware walker.
type Config struct {
	// N is the hop bound of the walk's scope (default 3; §VII finds 99% of
	// correct answers within 3 hops).
	N int
	// SelfLoopSim is the predicate similarity of the virtual self-loop on
	// the start node that makes the chain aperiodic (paper: 0.001).
	SelfLoopSim float64
	// Tol is the L1 convergence tolerance of the stationary distribution
	// (default 1e-10).
	Tol float64
	// MaxIter caps power iteration sweeps (default 1000).
	MaxIter int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 3
	}
	if c.SelfLoopSim <= 0 {
		c.SelfLoopSim = 0.001
	}
	if c.Tol <= 0 {
		c.Tol = 1e-10
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 1000
	}
	return c
}

// Walker is the semantic-aware Markov chain over one bounded subgraph,
// specialised to one query predicate. Build with New, call Converge, then
// sample answers.
//
// New keeps only what the stationary distribution needs: the scope in BFS
// order, a NodeID-addressed dense index, and per node the weighted degree
// W(i) and the weight arriving at it. The transition matrix itself is built
// by materialise, for the callers that read it: the convergence fallback and
// the literal walk of SampleByWalk. It lives in CSR (compressed sparse row)
// form: row i's transitions are targets[rowStart[i]:rowStart[i+1]] with
// matching probabilities in probs. Power iteration sweeps the transpose
// (inStart/inSrc/inProb — the same entries grouped by target), so each π′(j)
// is a gather into one register followed by a single write, rather than a
// scatter of read-modify-writes into random memory; the zeroing and the L1
// diff pass fuse into the same sweep.
type Walker struct {
	g     kg.ReadGraph
	calc  *semsim.Calculator
	start kg.NodeID
	pred  kg.PredID
	cfg   Config

	nodes []kg.NodeID // dense index → NodeID (BFS discovery order)
	index []int32     // NodeID → dense index + 1; 0 outside the scope

	// rowWeight[i] is the unnormalised weight mass of row i (Σ sim + the
	// start self-loop) — the weighted degree W(i) that the reversibility
	// fast path of ConvergeCtx turns into the closed-form π. inWeight[j] is
	// the same mass summed by target: Σᵢ w(i,j).
	rowWeight []float64
	inWeight  []float64

	// CSR transition matrix; each row sums to 1. Nil until materialise.
	rowStart []int32
	targets  []int32
	probs    []float64

	// CSC of the same matrix (CSR of its transpose): entry k of column j
	// says node inSrc[k] reaches j with probability inProb[k]. Used by the
	// power-iteration sweep.
	inStart []int32
	inSrc   []int32
	inProb  []float64

	pi    []float64 // stationary distribution (after Converge)
	iters int       // sweeps used (1 when the closed form verified directly)

	mem *arena // backs every array above; see Release
}

// arena is the working memory of one Walker. The engine keeps a walker only
// for one stage build — converge, copy π′ out, drop — and that build runs on
// every answer-space cache miss, so the arrays are recycled through Release
// instead of left to the collector. index is addressed by NodeID and so
// sized by the graph; it is all zero whenever the arena is on the free list.
// The first row below is what every walker uses, sized by its scope; the
// rest is the transition matrix, allocated only by materialise.
type arena struct {
	index                   []int32
	nodes                   []kg.NodeID
	cand                    []int32
	rowWeight, inWeight, pi []float64

	rowStart, targets, inStart, inSrc, pos []int32
	probs, inProb, piNext                  []float64
}

// arenas is the free list: at most one arena per P, whatever the garbage
// collector does in between (a sync.Pool is emptied by every second
// collection, and a cold query triggers more than one).
var arenas = make(chan *arena, runtime.GOMAXPROCS(0))

// arenaKeepBytes bounds what the free list retains per arena: one whose
// arrays hold more (a huge graph's index, a huge scope's matrix) is left to
// the collector.
const arenaKeepBytes = 6 << 20

// bytes is the memory the arena's arrays hold.
func (a *arena) bytes() int {
	return 4*(cap(a.index)+cap(a.nodes)+cap(a.cand)+cap(a.rowStart)+cap(a.targets)+
		cap(a.inStart)+cap(a.inSrc)+cap(a.pos)) +
		8*(cap(a.rowWeight)+cap(a.inWeight)+cap(a.pi)+cap(a.probs)+cap(a.inProb)+cap(a.piNext))
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
// transition matrix with the aperiodicity self-loop — all ConvergeCtx needs
// unless its check of the closed form fails.
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
	n := len(nodes)
	mem.rowWeight, mem.inWeight = sized(mem.rowWeight, n), sized(mem.inWeight, n)
	rowWeight, inWeight := mem.rowWeight, mem.inWeight
	simRow := calc.SimRow(queryPred)
	for i, u := range nodes {
		sum, entries := 0.0, 0
		for _, he := range g.Neighbors(u) {
			j := index[he.To]
			if j == 0 {
				continue // neighbour outside the n-bound: walk never leaves
			}
			s := simRow[he.Pred]
			sum += s
			inWeight[j-1] += s
			entries++
		}
		if u == start {
			sum += cfg.SelfLoopSim
			inWeight[i] += cfg.SelfLoopSim
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

// materialise assembles the transition matrix of Eq. 5 — CSR, then its
// transpose — over the scope New found. It is off the path every query
// takes: only a failed closed-form check, SampleByWalk and tests need P
// itself.
func (w *Walker) materialise() {
	if w.rowStart != nil {
		return
	}
	g, mem, index, start := w.g, w.mem, w.index, w.start

	// First pass: count in-bound transitions per row so the CSR arrays are
	// allocated exactly once. Every row gets at least one entry (the
	// probability-1 self-loop below), the start row one extra for the
	// aperiodicity self-loop.
	n := len(w.nodes)
	mem.rowStart = sized(mem.rowStart, n+1)
	w.rowStart = mem.rowStart
	for i, u := range w.nodes {
		c := int32(0)
		for _, he := range g.Neighbors(u) {
			if index[he.To] != 0 {
				c++
			}
		}
		if u == start {
			c++ // self-loop
		}
		if c == 0 {
			c = 1 // no listed neighbour inside the bound: probability-1 self-loop
		}
		w.rowStart[i+1] = w.rowStart[i] + c
	}
	total := int(w.rowStart[n])
	mem.targets, mem.probs = sized(mem.targets, total), sized(mem.probs, total)
	w.targets, w.probs = mem.targets, mem.probs

	// Second pass: fill rows, normalised by the row masses New summed.
	simRow := w.calc.SimRow(w.pred)
	for i, u := range w.nodes {
		at := w.rowStart[i]
		for _, he := range g.Neighbors(u) {
			j := index[he.To]
			if j == 0 {
				continue
			}
			w.targets[at] = j - 1
			w.probs[at] = simRow[he.Pred]
			at++
		}
		if u == start {
			w.targets[at] = int32(i)
			w.probs[at] = w.cfg.SelfLoopSim
			at++
		}
		if at == w.rowStart[i] {
			w.targets[at] = int32(i)
			w.probs[at] = 1
			at++
		}
		sum := w.rowWeight[i]
		for k := w.rowStart[i]; k < at; k++ {
			w.probs[k] /= sum
		}
	}

	// Transpose into CSC for the convergence gather: count incoming entries
	// per node, prefix-sum, then place.
	mem.inStart = sized(mem.inStart, n+1)
	inCounts := mem.inStart
	for _, j := range w.targets {
		inCounts[j+1]++
	}
	for j := 0; j < n; j++ {
		inCounts[j+1] += inCounts[j]
	}
	w.inStart = inCounts
	mem.inSrc, mem.inProb = sized(mem.inSrc, total), sized(mem.inProb, total)
	w.inSrc, w.inProb = mem.inSrc, mem.inProb
	mem.pos = sized(mem.pos, n)
	pos := mem.pos
	copy(pos, w.inStart[:n])
	for i := 0; i < n; i++ {
		for k := w.rowStart[i]; k < w.rowStart[i+1]; k++ {
			j := w.targets[k]
			w.inSrc[pos[j]] = int32(i)
			w.inProb[pos[j]] = w.probs[k]
			pos[j]++
		}
	}
}

// Size returns the number of nodes in the walk's scope.
func (w *Walker) Size() int { return len(w.nodes) }

// Scope returns the nodes of the walk's n-bounded scope in BFS discovery
// order, the start node first. The slice is the walker's own: read-only, and
// invalid after Release.
func (w *Walker) Scope() []kg.NodeID { return w.nodes }

// row returns the CSR row of dense node i: its targets and probabilities.
func (w *Walker) row(i int) ([]int32, []float64) {
	w.materialise()
	lo, hi := w.rowStart[i], w.rowStart[i+1]
	return w.targets[lo:hi], w.probs[lo:hi]
}

// Converge computes the stationary distribution and returns the number of
// verification/power-iteration sweeps used. Calling Converge again is a
// no-op.
//
// The chain's transition weights are symmetric — both half-edges of a
// stored edge carry the same predicate, Eq. 4 similarity is symmetric, and
// the aperiodicity self-loop is trivially symmetric — so the walk is a
// reversible Markov chain on a connected weighted graph (the n-bound is
// connected by construction: BFS only admits nodes reached through in-bound
// edges). Its stationary distribution therefore has the closed form
// π(i) = W(i)/ΣⱼW(j) with W the weighted degree (detailed balance:
// π(i)·w(i,j)/W(i) = π(j)·w(j,i)/W(j)). Converge computes that closed form
// directly and verifies it; only if the residual reaches Tol (it cannot for
// symmetric weights beyond floating-point slack, but a graph whose
// adjacency lists an edge in one direction only, or a future asymmetric
// weighting, differs) does it fall back to classic power iteration (Eq. 6),
// warm-started from the closed form.
func (w *Walker) Converge() int {
	n, _ := w.ConvergeCtx(context.Background())
	return n
}

// ConvergeCtx is Converge with cancellation: ctx is checked before every
// sweep, and a cancelled run returns ctx's error without storing a
// stationary distribution (the walker stays usable — a later ConvergeCtx
// restarts the computation).
//
// The check needs no matrix. One step of the chain from the closed form
// puts on node j the mass
//
//	πP(j) = Σᵢ (W(i)/ΣW) · (w(i,j)/W(i)) = Σᵢ w(i,j)/ΣW = inW(j)/ΣW,
//
// where inW(j) is the weight arriving at j. New summed it next to W, every
// entry of P once: a half-edge i→j inside the bound adds its similarity to
// W(i) and to inW(j), the start's self-loop adds SelfLoopSim to both
// W(start) and inW(start), a probability-1 self-loop adds 1 to both. So
// Σⱼ|inW(j) − W(j)|/ΣW is ‖πP − π‖₁ — the L1 change sweep measures over the
// transpose — up to rounding, and it is held to the same Tol. Only when it
// fails is P materialised, for the same check by sweep and then power
// iteration.
func (w *Walker) ConvergeCtx(ctx context.Context) (int, error) {
	if w.pi != nil {
		return w.iters, nil
	}
	n := len(w.nodes)
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("walk: convergence interrupted: %w", err)
	}

	// Reversibility fast path: π ∝ weighted degree, exactly.
	mem := w.mem
	mem.pi = sized(mem.pi, n)
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
	verified := diff/totalW < w.cfg.Tol
	var next []float64
	if !verified {
		// The closed form failed its check: verify it against the matrix
		// itself.
		w.materialise()
		mem.piNext = sized(mem.piNext, n)
		next = mem.piNext
		verified = w.sweep(pi, next) < w.cfg.Tol
	}
	if verified {
		w.pi = pi
		w.iters = 1
		return w.iters, nil
	}

	// Fallback: power iteration (π ← πP, the synchronous form of the
	// paper's Eq. 6 update) until the L1 change falls below Tol or MaxIter
	// sweeps pass, warm-started from the closed form.
	pi, next = next, pi
	w.iters = 1
	for it := 2; it <= w.cfg.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			return w.iters, fmt.Errorf("walk: convergence interrupted after %d sweeps: %w", w.iters, err)
		}
		diff = w.sweep(pi, next)
		pi, next = next, pi
		w.iters = it
		if diff < w.cfg.Tol {
			break
		}
	}
	w.pi = pi
	return w.iters, nil
}

// sweep performs one power-iteration step next ← πP over the transposed
// CSR and returns the L1 change. Gathering through the transpose turns the
// update into one register accumulation and a single write per node —
// no zeroing pass, no scattered read-modify-writes — with the L1 diff fused
// into the same loop. Four accumulators keep the gather from serialising on
// floating-point add latency.
func (w *Walker) sweep(pi, next []float64) float64 {
	inSrc, inProb, inStart := w.inSrc, w.inProb, w.inStart
	diff := 0.0
	for j := range next {
		lo, hi := int(inStart[j]), int(inStart[j+1])
		src := inSrc[lo:hi]
		pr := inProb[lo:hi:hi]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= len(src); k += 4 {
			s0 += pi[src[k]] * pr[k]
			s1 += pi[src[k+1]] * pr[k+1]
			s2 += pi[src[k+2]] * pr[k+2]
			s3 += pi[src[k+3]] * pr[k+3]
		}
		sum := (s0 + s1) + (s2 + s3)
		for ; k < len(src); k++ {
			sum += pi[src[k]] * pr[k]
		}
		next[j] = sum
		diff += math.Abs(sum - pi[j])
	}
	return diff
}

// Pi returns the stationary probability of node u (0 for nodes outside the
// walk's scope). Converge must have been called.
func (w *Walker) Pi(u kg.NodeID) float64 {
	if w.pi == nil {
		return 0
	}
	if u < 0 || int(u) >= len(w.index) || w.index[u] == 0 {
		return 0
	}
	return w.pi[w.index[u]-1]
}

// PiMap materialises the stationary distribution keyed by NodeID, the form
// semsim.ValidateCtx consumes.
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
// node). It returns ErrNotConverged when Converge/ConvergeCtx has not run
// (the caller owns convergence and its cancellation), and an error when no
// candidate answer has positive stationary probability.
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

// Prob returns π′ of answer index i.
func (d *AnswerDist) Prob(i int) float64 { return d.Probs[i] }

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

// SampleByWalk collects k answer visits by actually walking the chain with
// the walking-with-rejection policy of §IV-A2(2), after burnIn steps. It is
// the literal mechanism described in the paper; Sample is the equivalent
// direct draw from the stationary answer distribution. Exposed for tests
// and the sampling-equivalence benchmark. It returns ErrNotConverged when
// Converge/ConvergeCtx has not run.
func (w *Walker) SampleByWalk(r *rand.Rand, targetTypes []kg.TypeID, burnIn, k int) ([]kg.NodeID, error) {
	if w.pi == nil {
		return nil, ErrNotConverged
	}
	cur := 0 // the start node leads the scope
	step := func() {
		targets, probs := w.row(cur)
		if len(targets) == 0 {
			return
		}
		// Walking with rejection: pick a neighbour uniformly, accept with
		// probability proportional to its transition weight.
		maxP := 0.0
		for _, p := range probs {
			if p > maxP {
				maxP = p
			}
		}
		for {
			i := r.Intn(len(targets))
			if r.Float64()*maxP <= probs[i] {
				cur = int(targets[i])
				return
			}
		}
	}
	for i := 0; i < burnIn; i++ {
		step()
	}
	var out []kg.NodeID
	guard := 0
	limit := (burnIn + 1) * (k + 1) * 1000
	for len(out) < k && guard < limit {
		step()
		guard++
		u := w.nodes[cur]
		if u == w.start {
			continue
		}
		if w.g.SharesType(u, targetTypes) {
			out = append(out, u)
		}
	}
	return out, nil
}
