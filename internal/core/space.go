package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kgaq/internal/kg"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/stats"
	"kgaq/internal/walk"
)

// maxChainIntermediates caps the number of stage-one entities expanded per
// chain hop. The paper's two-stage sampling runs "till enough automobiles
// are obtained"; expanding the highest-π intermediates first preserves the
// bulk of the probability mass while bounding work.
const maxChainIntermediates = 300

// answerSpace is the sampling space of a compiled query: the candidate
// answers A with their exact per-draw probabilities π′ (Theorem 1), plus the
// correctness oracle combining the τ threshold and the greedy validation of
// §IV-B2.
//
// The oracle closures accept a ctx so a cancelled query can abandon an
// in-flight validation; a verdict is only kept when the validation ran to
// completion, so a cancelled call never poisons a cache with false
// negatives.
//
// The whole space is immutable after construction — the compiled-plan half
// a Prepared shares across executions. What an execution learns about a
// candidate lives in its own term table (terms.go), so concurrent executions
// of one plan never write shared memory. (The semantic oracle's own caches
// live on the engine's stage entries, guarded by their mutex.)
type answerSpace struct {
	answers []kg.NodeID
	probs   []float64 // sums to 1
	alias   *stats.Alias
	// oracle is the per-answer correctness machinery; the batch form, when
	// set, validates many answers in one shared search so a round's worth of
	// fresh answers costs one traversal instead of one per answer.
	oracle correctOracle
}

func (s *answerSpace) len() int { return len(s.answers) }

// drawInto appends k alias-table draws to dst and returns it; callers pass
// a reused scratch buffer so the per-round draw batch allocates nothing
// once warm.
func (s *answerSpace) drawInto(dst []int, r *rand.Rand, k int) []int {
	for j := 0; j < k; j++ {
		dst = append(dst, s.alias.Draw(r))
	}
	return dst
}

// buildMetrics counts answer-space build work, the raw material of a
// prepared plan's introspection (PlanInfo.CacheHits / CacheBuilt). Counters
// are atomic because chain builds fan out over the engine's worker pool. A
// nil *buildMetrics is a valid no-op sink.
type buildMetrics struct {
	hits  atomic.Int64 // converged stages served from the engine cache
	built atomic.Int64 // stages converged fresh during this build
}

func (b *buildMetrics) hit() {
	if b != nil {
		b.hits.Add(1)
	}
}

func (b *buildMetrics) build() {
	if b != nil {
		b.built.Add(1)
	}
}

// buildSemanticSpace assembles the answer space for one decomposed path
// using the semantic-aware walker (§IV-A), recursively for chains (§V-B).
func (e *Engine) buildSemanticSpace(ctx context.Context, o Options, v view, p query.Path, bm *buildMetrics) (*answerSpace, error) {
	us, err := resolveRoot(v.g, p)
	if err != nil {
		return nil, err
	}
	if len(p.Hops) == 1 {
		// One hop: the space is the stage's own distribution, reordered.
		st, oracle, err := e.hopStage(ctx, o, v, us, p.Hops[0], bm)
		if err != nil {
			return nil, err
		}
		return spaceFromStage(st, oracle)
	}
	pi, oracle, err := e.buildChainLevel(ctx, o, v, us, p.Hops, bm)
	if err != nil {
		return nil, err
	}
	return spaceFromMap(pi, oracle)
}

// correctOracle is the per-path correctness machinery: a per-answer verdict
// plus an optional batch form that shares one greedy search across many
// answers.
type correctOracle struct {
	single func(ctx context.Context, u kg.NodeID) bool
	batch  func(ctx context.Context, us []kg.NodeID) map[kg.NodeID]bool
}

// spaceFromMap normalises a π map into an answerSpace with deterministic
// answer order.
func spaceFromMap(pi map[kg.NodeID]float64, oracle correctOracle) (*answerSpace, error) {
	answers := make([]kg.NodeID, 0, len(pi))
	for u := range pi {
		answers = append(answers, u)
	}
	slices.Sort(answers)
	probs := make([]float64, len(answers))
	for i, u := range answers {
		probs[i] = pi[u]
	}
	return newAnswerSpace(answers, probs, oracle)
}

// spaceFromStage is spaceFromMap for the distribution of one converged
// stage, whose answers come in walk order: the (answer, probability) pairs
// are put into NodeID order directly.
func spaceFromStage(st *stageEntry, oracle correctOracle) (*answerSpace, error) {
	type pair struct {
		u kg.NodeID
		p float64
	}
	pairs := make([]pair, len(st.answers))
	for i, u := range st.answers {
		pairs[i] = pair{u, st.probs[i]}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.u, b.u) })
	answers := make([]kg.NodeID, len(pairs))
	probs := make([]float64, len(pairs))
	for i, pr := range pairs {
		answers[i], probs[i] = pr.u, pr.p
	}
	return newAnswerSpace(answers, probs, oracle)
}

// newAnswerSpace builds the space over answers in ascending NodeID order,
// normalising their masses in that order (so a space's probabilities do not
// depend on how its answers were collected).
func newAnswerSpace(answers []kg.NodeID, probs []float64, oracle correctOracle) (*answerSpace, error) {
	total := 0.0
	for _, p := range probs {
		total += p
	}
	if len(answers) == 0 || total <= 0 {
		return nil, fmt.Errorf("core: no candidate answers with positive visiting probability")
	}
	for i := range probs {
		probs[i] /= total
	}
	alias := stats.NewAlias(probs)
	if alias == nil {
		return nil, fmt.Errorf("core: failed to build sampling table")
	}
	return &answerSpace{answers: answers, probs: probs, alias: alias, oracle: oracle}, nil
}

// convergedStage returns the converged stage for (root, pred, types) under
// the walk configuration in o, consulting the engine's answer-space cache
// first. A miss builds the walker over the query's graph view, converges it
// and extracts π′, then publishes the stage for every later query with the
// same key; concurrent misses build independently and converge on the
// first-published entry.
//
// Epoch discipline: a cached stage is served only when its build epoch is
// at or below the view's (older is fine — mutation-scope invalidation
// guarantees nothing in the stage's bound changed since it was built); a
// fresh build is tagged with the view's epoch and its walk scope, the unit
// of selective invalidation.
func (e *Engine) convergedStage(ctx context.Context, o Options, v view,
	root kg.NodeID, pred kg.PredID, types []kg.TypeID, bm *buildMetrics) (*stageEntry, error) {

	key := stageKeyOf(o, root, pred, types)
	if st := e.cachedStage(key, v, bm); st != nil {
		return st, nil
	}
	return e.buildStage(ctx, o, v, key, types, bm)
}

func stageKeyOf(o Options, root kg.NodeID, pred kg.PredID, types []kg.TypeID) stageKey {
	return stageKey{
		root:     root,
		pred:     pred,
		types:    typesKeyOf(types),
		n:        o.N,
		selfLoop: o.SelfLoopSim,
	}
}

// cachedStage is the hit half of convergedStage: the resident stage for key
// that view v may read, or nil.
func (e *Engine) cachedStage(key stageKey, v view, bm *buildMetrics) *stageEntry {
	st := e.cache.get(key, v.epoch)
	if st != nil {
		bm.hit()
	}
	return st
}

// buildStage is the miss half of convergedStage: converge a fresh walker
// and publish the stage. The caller has already consulted the cache.
func (e *Engine) buildStage(ctx context.Context, o Options, v view,
	key stageKey, types []kg.TypeID, bm *buildMetrics) (*stageEntry, error) {

	bm.build()
	metStageBuilds.Inc()
	endSpan := obs.TraceFrom(ctx).Span("walk_converge")
	w, err := walk.New(v.g, e.calc, key.root, key.pred, walk.Config{N: o.N, SelfLoopSim: o.SelfLoopSim})
	if err != nil {
		endSpan.End()
		return nil, err
	}
	// Everything the stage keeps is copied out of the walker below.
	defer w.Release()
	iters, err := w.ConvergeCtx(ctx)
	if err != nil {
		endSpan.End()
		return nil, err
	}
	endSpan.EndWalk(w.Size(), iters)
	if iters > 1 {
		metWalkFallbacks.Inc()
	}
	dist, err := w.AnswerDistribution(types)
	if err != nil {
		return nil, fmt.Errorf("core: stage rooted at %q: %w", v.g.Name(key.root), err)
	}
	// The scope is what a mutation is matched against to invalidate the
	// cached stage; without a cache nothing reads it.
	var scope []kg.NodeID
	if e.cache != nil {
		scope = slices.Clone(w.Scope())
		slices.Sort(scope)
	}
	st := newStageEntry(dist.Answers, dist.Probs, w.PiMap(), v.epoch, scope)
	return e.cache.put(key, st), nil
}

// stageOracle builds the leg validator over one converged stage. The batch
// form runs one greedy search for a whole set of answers (§IV-B2's search
// is a single traversal recording paths to every requested answer).
// Verdicts live on the shared stage entry under the (τ, repeat) sub-map,
// guarded by its mutex, and are stored only when the search was not
// cancelled mid-flight; the validation itself runs outside the lock so
// concurrent queries never serialise on it.
func (e *Engine) stageOracle(o Options, v view, st *stageEntry,
	root kg.NodeID, pred kg.PredID) correctOracle {

	vcfg := semsim.ValidatorConfig{Repeat: o.Repeat, MaxLen: o.N, Tau: o.Tau}
	vkey := verdictKey{tau: o.Tau, repeat: o.Repeat}
	legBatch := func(ctx context.Context, us []kg.NodeID) map[kg.NodeID]bool {
		out := make(map[kg.NodeID]bool, len(us))
		var fresh []kg.NodeID
		st.mu.Lock()
		verdicts := st.verdictsFor(vkey)
		for _, u := range us {
			if v, ok := verdicts.get(u); ok {
				out[u] = v
			} else {
				fresh = append(fresh, u)
			}
		}
		st.mu.Unlock()
		if hits := len(us) - len(fresh); hits > 0 {
			metVerdictHits.Add(float64(hits))
			obs.TraceFrom(ctx).Add("verdict_cache_hits", float64(hits))
		}
		if len(fresh) > 0 && ctx.Err() == nil {
			metValidationCalls.Add(float64(len(fresh)))
			obs.TraceFrom(ctx).Add("validation_calls", float64(len(fresh)))
			res, _ := semsim.ValidateCtx(ctx, v.g, e.calc, root, pred, st.piMap, fresh, vcfg)
			if ctx.Err() == nil {
				st.mu.Lock()
				verdicts := st.verdictsFor(vkey)
				for _, u := range fresh {
					v, ok := verdicts.get(u)
					if !ok {
						v = res[u].Similarity >= o.Tau
						verdicts.put(u, v)
					}
					out[u] = v
				}
				st.mu.Unlock()
			}
		}
		return out
	}
	legOK := func(ctx context.Context, u kg.NodeID) bool {
		return legBatch(ctx, []kg.NodeID{u})[u]
	}
	return correctOracle{single: legOK, batch: legBatch}
}

// chainSub is one expanded stage-one intermediate of a chain: the node and
// its stage-one probability, then — filled by expandChain — the final
// answers its remaining hops reach with their visiting probabilities from
// it, and the oracle of that onward path. An intermediate that leads
// nowhere keeps nil answers and contributes nothing.
type chainSub struct {
	node    kg.NodeID
	prob    float64
	answers []kg.NodeID
	probs   []float64 // parallel to answers
	correct correctOracle
}

// expandChain fills the onward half of every intermediate in subs. With one
// hop left the onward level is a converged stage whose answer and
// probability slices are read in place: a resident stage is picked up
// inline, so a warm chain query starts no goroutine and copies no
// distribution. Misses, and deeper chains (which recurse), are independent
// builds and fan out over the engine's worker pool. A worker slot is
// acquired opportunistically: when the pool is saturated (many concurrent
// queries, or a deeper recursion level already took the slots) the build
// simply runs inline, which keeps the fan-out deadlock-free at any depth.
func (e *Engine) expandChain(ctx context.Context, o Options, v view, subs []chainSub, hops []query.Hop, bm *buildMetrics) error {
	leaf := len(hops) == 1
	var key stageKey
	var types []kg.TypeID
	if leaf {
		pred, err := resolvePred(v.g, hops[0].Predicate)
		if err != nil {
			return nil // as when every recursion fails: no onward answers
		}
		if types, err = resolveTypes(v.g, hops[0].Types); err != nil {
			return nil
		}
		key = stageKeyOf(o, 0, pred, types)
	}
	fill := func(sub *chainSub, st *stageEntry) {
		sub.answers, sub.probs = st.answers, st.probs
		sub.correct = e.stageOracle(o, v, st, sub.node, key.pred)
	}
	build := func(sub *chainSub) {
		if leaf {
			k := key
			k.root = sub.node
			if st, err := e.buildStage(ctx, o, v, k, types, bm); err == nil {
				fill(sub, st)
			}
			return
		}
		pi, correct, err := e.buildChainLevel(ctx, o, v, sub.node, hops, bm)
		if err != nil {
			return
		}
		sub.correct = correct
		sub.answers = make([]kg.NodeID, 0, len(pi))
		sub.probs = make([]float64, 0, len(pi))
		for u, p := range pi {
			sub.answers = append(sub.answers, u)
			sub.probs = append(sub.probs, p)
		}
	}
	var wg sync.WaitGroup
	var pb panicBox
	for i := range subs {
		if ctx.Err() != nil {
			break
		}
		sub := &subs[i]
		if leaf {
			k := key
			k.root = sub.node
			if st := e.cachedStage(k, v, bm); st != nil {
				fill(sub, st)
				continue
			}
		}
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-e.sem }()
				defer pb.capture()
				build(sub)
			}()
		default:
			build(sub)
		}
	}
	wg.Wait()
	pb.rethrow()
	return ctx.Err()
}

// hopStage returns the converged stage of one hop from root and the leg
// validator over it.
func (e *Engine) hopStage(ctx context.Context, o Options, v view, root kg.NodeID, hop query.Hop, bm *buildMetrics) (*stageEntry, correctOracle, error) {
	pred, err := resolvePred(v.g, hop.Predicate)
	if err != nil {
		return nil, correctOracle{}, err
	}
	types, err := resolveTypes(v.g, hop.Types)
	if err != nil {
		return nil, correctOracle{}, err
	}
	st, err := e.convergedStage(ctx, o, v, root, pred, types, bm)
	if err != nil {
		return nil, correctOracle{}, err
	}
	return st, e.stageOracle(o, v, st, root, pred), nil
}

// buildChainLevel returns the exact visiting distribution over the final
// hop's answers together with a lazy correctness oracle, recursing over the
// chain's hops: π(j) = Σᵢ π′ᵢ · π′ⱼ|ᵢ (§V-B), and an answer is correct when
// some intermediate chain validates every leg at the τ threshold.
func (e *Engine) buildChainLevel(ctx context.Context, o Options, v view, root kg.NodeID, hops []query.Hop, bm *buildMetrics) (map[kg.NodeID]float64, correctOracle, error) {
	none := correctOracle{}
	if len(hops) == 0 {
		return nil, none, fmt.Errorf("core: empty hop sequence")
	}
	st, oracle, err := e.hopStage(ctx, o, v, root, hops[0], bm)
	if err != nil {
		return nil, none, err
	}
	legOK := oracle.single

	if len(hops) == 1 {
		pi := make(map[kg.NodeID]float64, len(st.answers))
		for i, u := range st.answers {
			pi[u] = st.probs[i]
		}
		return pi, oracle, nil
	}

	// Multi-hop: expand the highest-probability intermediates, recursing
	// into the remaining hops from each.
	subs := make([]chainSub, len(st.answers))
	for i, u := range st.answers {
		subs[i] = chainSub{node: u, prob: st.probs[i]}
	}
	sort.Slice(subs, func(a, b int) bool {
		if subs[a].prob != subs[b].prob {
			return subs[a].prob > subs[b].prob
		}
		return subs[a].node < subs[b].node
	})
	if len(subs) > maxChainIntermediates {
		subs = subs[:maxChainIntermediates]
	}

	if err := e.expandChain(ctx, o, v, subs, hops[1:], bm); err != nil {
		return nil, none, err
	}

	// Accumulate sequentially in intermediate order so the assembled π is
	// deterministic regardless of which goroutine finished first. Answers
	// get dense ids in order of first sight; ids remembers the id of every
	// (intermediate, answer) pair so the second pass needs no map.
	pairs, widest := 0, 0
	for k := range subs {
		pairs += len(subs[k].answers)
		widest = max(widest, len(subs[k].answers))
	}
	idOf := make(map[kg.NodeID]int32, widest)
	var answers []kg.NodeID
	var mass []float64
	var fanIn []int32
	ids := make([]int32, 0, pairs)
	for k := range subs {
		sub := &subs[k]
		for j, u := range sub.answers {
			id, seen := idOf[u]
			if !seen {
				id = int32(len(answers))
				idOf[u] = id
				answers = append(answers, u)
				mass = append(mass, 0)
				fanIn = append(fanIn, 0)
			}
			mass[id] += sub.prob * sub.probs[j]
			if sub.probs[j] > 0 {
				fanIn[id]++
			}
			ids = append(ids, id)
		}
	}
	if len(answers) == 0 {
		return nil, none, fmt.Errorf("core: chain stage rooted at %q found no final answers", v.g.Name(root))
	}
	pi := make(map[kg.NodeID]float64, len(answers))
	for id, u := range answers {
		pi[u] = mass[id]
	}
	// reach(u) lists the intermediates whose walk reaches answer u, most
	// probable first (the order of subs), as one row of a CSR index —
	// built once, here, so neither oracle form ever scans intermediates ×
	// answers and the build allocates two arrays, not one slice per answer.
	rowStart := make([]int32, len(answers)+1)
	for id, n := range fanIn {
		rowStart[id+1] = rowStart[id] + n
	}
	rows := make([]int32, rowStart[len(answers)])
	next := fanIn // reused as the per-row fill cursor
	copy(next, rowStart)
	at := 0
	for k := range subs {
		for _, p := range subs[k].probs {
			if id := ids[at]; p > 0 {
				rows[next[id]] = int32(k)
				next[id]++
			}
			at++
		}
	}
	reach := func(u kg.NodeID) []int32 {
		id, ok := idOf[u]
		if !ok {
			return nil
		}
		return rows[rowStart[id]:rowStart[id+1]]
	}

	// An answer is correct when some chain validates every leg:
	// OR over intermediates i of legOK(i) ∧ subᵢ.correct(u).
	single := func(ctx context.Context, u kg.NodeID) bool {
		for _, k := range reach(u) {
			if ctx.Err() != nil {
				return false
			}
			if legOK(ctx, subs[k].node) && subs[k].correct.single(ctx, u) {
				return true
			}
		}
		return false
	}
	// The batch form evaluates the same disjunction in a different order,
	// which cannot change it, and semsim.ValidateCtx expands by π of the
	// path tip whatever set it was asked for, so an answer's verdict is the
	// same alone or in company. One search from the root settles the leg of
	// every intermediate the requested answers are reached through; then
	// each leg-correct intermediate runs its own batch over the answers it
	// reaches that no earlier chain has validated yet.
	batch := func(ctx context.Context, us []kg.NodeID) map[kg.NodeID]bool {
		out := make(map[kg.NodeID]bool, len(us))
		wanted := make([]bool, len(subs))
		var legs []kg.NodeID
		for _, u := range us {
			out[u] = false
			for _, k := range reach(u) {
				if !wanted[k] {
					wanted[k] = true
					legs = append(legs, subs[k].node)
				}
			}
		}
		legVerdicts := oracle.batch(ctx, legs)
		if ctx.Err() != nil {
			return out
		}
		through := make([][]kg.NodeID, len(subs))
		for _, u := range us {
			for _, k := range reach(u) {
				if legVerdicts[subs[k].node] {
					through[k] = append(through[k], u)
				}
			}
		}
		for k, reaches := range through {
			open := reaches[:0]
			for _, u := range reaches {
				if !out[u] {
					open = append(open, u)
				}
			}
			if len(open) == 0 {
				continue
			}
			verdicts := subs[k].correct.batch(ctx, open)
			if ctx.Err() != nil {
				return out
			}
			for _, u := range open {
				if verdicts[u] {
					out[u] = true
				}
			}
		}
		return out
	}
	return pi, correctOracle{single: single, batch: batch}, nil
}

// buildAssemblySpace implements decomposition–assembly (§V-B): one sampling
// space per decomposed path, intersected. The assembled distribution is the
// normalised product of per-path visiting probabilities (an answer must be
// reachable by every constraint's walk), and an answer is correct only if
// every path validates it.
func (e *Engine) buildAssemblySpace(ctx context.Context, o Options, v view, paths []query.Path, bm *buildMetrics) (*answerSpace, error) {
	if len(paths) == 1 {
		return e.buildSemanticSpace(ctx, o, v, paths[0], bm)
	}
	type level struct {
		pi      map[kg.NodeID]float64
		correct correctOracle
	}
	levels := make([]level, 0, len(paths))
	for _, p := range paths {
		us, err := resolveRoot(v.g, p)
		if err != nil {
			return nil, err
		}
		pi, correct, err := e.buildChainLevel(ctx, o, v, us, p.Hops, bm)
		if err != nil {
			return nil, fmt.Errorf("core: sub-query rooted at %q: %w", p.RootName, err)
		}
		levels = append(levels, level{pi: pi, correct: correct})
	}
	inter := map[kg.NodeID]float64{}
	for u, p := range levels[0].pi {
		inter[u] = p
	}
	for _, lv := range levels[1:] {
		for u := range inter {
			if p, ok := lv.pi[u]; ok {
				inter[u] *= p
			} else {
				delete(inter, u)
			}
		}
	}
	if len(inter) == 0 {
		return nil, fmt.Errorf("core: decomposition–assembly intersection is empty")
	}
	// The assembled verdict is the conjunction over paths, in both forms.
	single := func(ctx context.Context, u kg.NodeID) bool {
		for _, lv := range levels {
			if !lv.correct.single(ctx, u) {
				return false
			}
		}
		return true
	}
	batch := func(ctx context.Context, us []kg.NodeID) map[kg.NodeID]bool {
		out := make(map[kg.NodeID]bool, len(us))
		for _, u := range us {
			out[u] = true
		}
		for _, lv := range levels {
			verdicts := lv.correct.batch(ctx, us)
			for _, u := range us {
				if !verdicts[u] {
					out[u] = false
				}
			}
		}
		return out
	}
	return spaceFromMap(inter, correctOracle{single: single, batch: batch})
}

// buildTopologySpace assembles the answer space using a topology-only
// sampler (the Fig. 5a ablation). Only simple queries are supported — the
// ablation workload — and probabilities are the walker's empirical visit
// shares.
func (e *Engine) buildTopologySpace(ctx context.Context, o Options, v view, p query.Path, r *rand.Rand, k int) (*answerSpace, []int, error) {
	if len(p.Hops) != 1 {
		return nil, nil, fmt.Errorf("core: %v sampler supports simple queries only", o.Sampler)
	}
	us, err := resolveRoot(v.g, p)
	if err != nil {
		return nil, nil, err
	}
	types, err := resolveTypes(v.g, p.Hops[0].Types)
	if err != nil {
		return nil, nil, err
	}
	var ts *walk.TopologySample
	switch o.Sampler {
	case SamplerCNARW:
		ts, err = walk.CNARW(ctx, v.g, us, types, o.N, r, 200, k)
	case SamplerNode2Vec:
		ts, err = walk.Node2Vec(ctx, v.g, us, types, o.N, 1, 0.5, r, 200, k)
	default:
		return nil, nil, fmt.Errorf("core: buildTopologySpace called with sampler %v", o.Sampler)
	}
	if err != nil {
		return nil, nil, err
	}
	alias := stats.NewAlias(ts.Probs)
	if alias == nil {
		return nil, nil, fmt.Errorf("core: topology sample has no mass")
	}
	sp := &answerSpace{answers: ts.Answers, probs: ts.Probs, alias: alias}

	// Correctness still uses the greedy validator so the ablation isolates
	// the sampling step (S1) exactly as in Fig. 5a. The validator wants a
	// π map; the empirical shares serve. The verdict is remembered in the
	// execution's term table, as for the semantic oracle.
	pred, err := resolvePred(v.g, p.Hops[0].Predicate)
	if err != nil {
		return nil, nil, err
	}
	piMap := map[kg.NodeID]float64{}
	for i, u := range ts.Answers {
		piMap[u] = ts.Probs[i]
	}
	sp.oracle.single = func(ctx context.Context, u kg.NodeID) bool {
		res, _ := semsim.ValidateCtx(ctx, v.g, e.calc, us, pred, piMap, []kg.NodeID{u},
			semsim.ValidatorConfig{Repeat: o.Repeat, MaxLen: o.N, Tau: o.Tau})
		if ctx.Err() != nil {
			return false
		}
		return res[u].Similarity >= o.Tau
	}
	return sp, ts.Draws, nil
}
