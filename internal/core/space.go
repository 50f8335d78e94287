package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"kgaq/internal/kg"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/stats"
	"kgaq/internal/walk"
)

// errWideLevel marks a chain stage with more intermediates than the uint16
// rows of its level's reach index can name. Only a loaded graph can hold
// such a stage, so the query fails rather than wrap an index or drop an
// intermediate.
var errWideLevel = errors.New("too many chain intermediates")

// failsChain says whether an onward build's error fails the whole chain
// query rather than leave its intermediate leading nowhere: a level too
// wide to index, and a scope whose adjacency is not symmetric
// (walk.ErrAsymmetric), whose π would be wrong. Dropping either would turn
// the query's answer silently wrong.
func failsChain(err error) bool {
	return errors.Is(err, errWideLevel) || errors.Is(err, walk.ErrAsymmetric)
}

// Shared verdict of one candidate (answerSpace.verdicts).
const (
	verdictUnknown uint32 = iota
	verdictIncorrect
	verdictCorrect
)

// answerSpace is the sampling space of a compiled query graph: the candidate
// answers A with their exact per-draw probabilities π′ (Theorem 1), the data
// of the correctness oracle deciding Eq. 3 at the τ threshold, and one
// shared verdict per candidate.
//
// It is also the unit the engine's answer-space cache holds per plan key, so
// it is data only: no graph view, no stage pointer, no closure over one. The
// oracle is handed the execution's own view each time it runs (oracleEnv)
// and fetches the stages it needs by key, which is why a cached space pins
// exactly the bytes its cost charges and never a superseded snapshot.
//
// Everything but verdicts and the published term tables is immutable after
// construction — the compiled-plan half a Prepared shares across
// executions. A verdict is a function of (graph inside the space's scope,
// candidate, τ), all of which are fixed while the space is valid, so
// whichever execution settles a candidate first settles it for every other:
// verdicts[i] is written once a validation of candidate i ran to completion
// (atomically; racing writers store the same value) and read before
// anything is queued for the oracle. What else an execution learns of a
// candidate — filters, attribute values, group — lives in its own term
// table (terms.go), until a census has settled all of them: that table is
// published here, under its aggregate binding and the view epoch whose
// attribute values it read, for later executions to adopt (terms).
type answerSpace struct {
	// cacheMeta is the space's cache header: the view epoch it was assembled
	// at, the union of the scopes of every stage the assembly read, and the
	// bytes it holds.
	cacheMeta
	answers  []kg.NodeID // ascending
	probs    []float64   // sums to 1
	alias    *stats.Alias
	oracle   oracle
	verdicts []atomic.Uint32 // parallel to answers

	// resident is set while the engine's cache holds the space (written
	// under its lock): only then is a term table published here, its bytes
	// charged to cost, and evicting the space drops them again.
	resident atomic.Bool
	// terms are the published term tables, one slot per aggregate binding
	// and at most maxPublishedTerms, guarded by termsMu.
	termsMu sync.Mutex
	terms   []*publishedTerms
}

// maxPublishedTerms caps the aggregate bindings one answer space publishes a
// term table for; a binding beyond it keeps evaluating its candidates.
// The benchmark's hot_repeat workload binds at most five on one space.
const maxPublishedTerms = 8

func (s *answerSpace) len() int { return len(s.answers) }

// publishedTerms returns the term table published for key's binding at
// key's epoch, or nil.
func (s *answerSpace) publishedTerms(key *termKey) *publishedTerms {
	s.termsMu.Lock()
	defer s.termsMu.Unlock()
	for _, pt := range s.terms {
		if pt.binds(key) && pt.epoch == key.epoch {
			return pt
		}
	}
	return nil
}

// termSlot is where a table for key would be installed now: its binding's
// slot when that holds an older epoch's table, else a new slot at
// len(terms) when the binding has none and the cap leaves room. ok is
// false when there is no such slot. Callers hold termsMu.
func (s *answerSpace) termSlot(key *termKey) (j int, ok bool) {
	for j, pt := range s.terms {
		if pt.binds(key) {
			return j, pt.epoch < key.epoch
		}
	}
	return len(s.terms), len(s.terms) < maxPublishedTerms
}

// wantsTerms reports whether a table for key would be installed now.
func (s *answerSpace) wantsTerms(key *termKey) bool {
	s.termsMu.Lock()
	defer s.termsMu.Unlock()
	_, ok := s.termSlot(key)
	return ok
}

// installTerms puts pt in its binding's slot when wantsTerms allows it —
// write-once per epoch, a newer epoch replacing an older — and returns the
// change in the bytes the space holds.
func (s *answerSpace) installTerms(pt *publishedTerms) (delta int64, ok bool) {
	s.termsMu.Lock()
	defer s.termsMu.Unlock()
	j, ok := s.termSlot(&pt.termKey)
	switch {
	case !ok:
		return 0, false
	case j == len(s.terms):
		s.terms = append(s.terms, pt)
		return pt.bytes, true
	}
	delta = pt.bytes - s.terms[j].bytes
	s.terms[j] = pt
	return delta, true
}

// dropTerms unpublishes every term table and returns the bytes they held.
func (s *answerSpace) dropTerms() int64 {
	s.termsMu.Lock()
	defer s.termsMu.Unlock()
	n := int64(0)
	for _, pt := range s.terms {
		n += pt.bytes
	}
	s.terms = nil
	return n
}

// drawInto appends k alias-table draws, one word of sm each, to dst and
// returns it; callers pass a reused scratch buffer so the per-round draw
// batch allocates nothing once warm.
func (s *answerSpace) drawInto(dst []int, sm *stats.Splitmix, k int) []int {
	for j := 0; j < k; j++ {
		dst = append(dst, s.alias.Pick(sm.Next()))
	}
	return dst
}

// spaceBuild follows one answer-space build: how many converged stages came
// from the engine cache and how many were converged fresh (the raw material
// of PlanInfo.CacheHits / CacheBuilt), and the scope of each — their union
// is what a mutation must miss for the assembled space to stay valid. Chain
// builds fan out over the engine's worker pool, hence the atomics and the
// mutex. A nil *spaceBuild is a valid no-op sink.
type spaceBuild struct {
	hits  atomic.Int64 // converged stages served from the engine cache
	built atomic.Int64 // stages converged fresh during this build

	mu     sync.Mutex
	scopes [][]kg.NodeID
}

func (b *spaceBuild) hit() {
	if b != nil {
		b.hits.Add(1)
	}
}

func (b *spaceBuild) build() {
	if b != nil {
		b.built.Add(1)
	}
}

// read notes a stage the assembly read.
func (b *spaceBuild) read(st *stageEntry) {
	if b != nil && len(st.scope) > 0 {
		b.mu.Lock()
		b.scopes = append(b.scopes, st.scope)
		b.mu.Unlock()
	}
}

// unionScope merges the scopes of every stage read into one sorted node
// list: a two-hop chain reads ≈ 190 stages of ≈ 2 800 nodes each that
// overlap almost entirely.
func (b *spaceBuild) unionScope(g kg.ReadGraph) []kg.NodeID {
	if len(b.scopes) == 1 {
		return b.scopes[0] // a one-hop space shares its stage's list
	}
	return sortedNodes(g, b.scopes...)
}

// sortedNodes returns the union of lists as one ascending node list without
// duplicates, through a bitmap over g's node ids: one pass to mark, one to
// read the set bits in order, and no comparison sort.
func sortedNodes(g kg.ReadGraph, lists ...[]kg.NodeID) []kg.NodeID {
	marks := make([]uint64, (g.NumNodes()+63)/64)
	for _, l := range lists {
		for _, u := range l {
			marks[u>>6] |= 1 << (u & 63)
		}
	}
	n := 0
	for _, w := range marks {
		n += bits.OnesCount64(w)
	}
	out := make([]kg.NodeID, 0, n)
	for i, w := range marks {
		for ; w != 0; w &= w - 1 {
			out = append(out, kg.NodeID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// oracleEnv is what a validation needs beyond the space's own data and what
// a cached space must not hold: the engine, the graph view and the options
// of the execution asking. A space valid for the view gives the same verdict
// under any such view (the validity rule of the cache), so the env never
// shows in the outcome.
type oracleEnv struct {
	e *Engine
	o Options
	v view
}

// oracle is the correctness machinery of an answer space, in batch form: one
// shared search settles a round's worth of fresh answers (a single
// traversal records the paths to every requested answer).
// It writes the verdict of us[j] to out[j] and reports whether the
// validation ran to completion; a cut batch carries no evidence and nothing
// of it may be kept.
type oracle interface {
	batch(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool
}

// levelOracle validates the answers of one decomposed path from one root.
// A one-hop level is the key of its converged stage: the verdicts are the
// stage's leg verdicts. A multi-hop level (§V-B) additionally lists the
// stage-one intermediates it expanded, most probable first, each with the
// level of its remaining hops, and indexes which intermediates reach which
// final answer: an answer is correct when some intermediate chain validates
// every leg at the τ threshold.
type levelOracle struct {
	key   stageKey
	types []kg.TypeID // key.types, as the stage build wants them
	// st is the converged stage itself, set only when the engine has no
	// cache to fetch it from by key: such a space is never cached either and
	// lives as long as the plan that compiled it.
	st *stageEntry

	subs []levelOracle
	// answers are the level's final answers, ascending; row i of the CSR
	// index (rowStart, rows) lists the positions in subs of the
	// intermediates whose walk reaches answers[i], most probable first.
	answers  []kg.NodeID
	rowStart []int32
	rows     []uint16
}

// bytes is what the level's data holds, for the space's cache cost.
func (l *levelOracle) bytes() int64 {
	n := int64(unsafe.Sizeof(*l)) + int64(len(l.answers))*4 + int64(len(l.rowStart))*4 + int64(len(l.rows))*2
	for k := range l.subs {
		n += l.subs[k].bytes()
	}
	return n
}

// reach lists the intermediates whose walk reaches answer u.
func (l *levelOracle) reach(u kg.NodeID) []uint16 {
	i, ok := slices.BinarySearch(l.answers, u)
	if !ok {
		return nil
	}
	return l.rows[l.rowStart[i]:l.rowStart[i+1]]
}

// legBatch validates us, answers of the level's own stage (the leg from
// its root), against it. Verdicts live on the shared stage entry under the
// τ sub-map, guarded by its mutex, and are stored only when the search was
// not cancelled mid-flight; the validation itself runs outside the lock so
// concurrent queries never serialise on it. The stage is fetched by key,
// and re-converged if the LRU has let it go (a later epoch's stage gives
// the same verdicts) — reached only for answers nobody has validated under
// this plan yet.
//
// A request with an answer still open validates every open answer of the
// stage, asked for or not, in one search: each verdict is Eq. 3's, whatever
// else is asked, and a request holding an incorrect answer enumerates every
// path under the τ bound either way, so the stage's answers cost what the
// request's do, and every later round, the census and later executions of
// the plan find their verdicts on the stage.
func (l *levelOracle) legBatch(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
	st := l.st
	if st == nil {
		if st = env.e.cache.fetchStage(l.key, env.v.epoch); st == nil {
			var err error
			if st, err = env.e.buildStage(ctx, env.o, env.v, l.key, typeMaskOf(env.v.g, l.types), nil); err != nil {
				return false
			}
		}
	}
	o := env.o
	var openAt []int // positions in us
	var fresh []kg.NodeID
	st.mu.Lock()
	verdicts := st.verdictsFor(o.Tau)
	for j, u := range us {
		if v, ok := verdicts.get(u); ok {
			out[j] = v
		} else {
			openAt = append(openAt, j)
		}
	}
	if len(openAt) > 0 {
		for _, u := range st.answers {
			if _, ok := verdicts.get(u); !ok {
				fresh = append(fresh, u)
			}
		}
	}
	st.mu.Unlock()
	if hits := len(us) - len(openAt); hits > 0 {
		metVerdictHits.Add(float64(hits))
		obs.TraceFrom(ctx).Add("verdict_cache_hits", float64(hits))
	}
	if len(openAt) == 0 {
		return true
	}
	if ctx.Err() != nil {
		return false
	}
	metValidationCalls.Add(float64(len(fresh)))
	tr := obs.TraceFrom(ctx)
	tr.Add("validation_calls", float64(len(fresh)))
	// The stage was built at the view's epoch or an older one, and node ids
	// are never reused, so its answers are node ids of the view.
	correct := make([]bool, len(fresh))
	stats, err := semsim.Validate(ctx, env.v.g, env.e.calc, l.key.root, l.key.pred, fresh, correct,
		semsim.ValidatorConfig{MaxLen: o.N, Tau: o.Tau})
	tr.Add("validation_expansions", float64(stats.Expansions))
	if err != nil {
		return false
	}
	st.mu.Lock()
	verdicts = st.verdictsFor(o.Tau)
	for i, u := range fresh {
		verdicts.put(u, correct[i]) // an earlier verdict stands
	}
	for _, j := range openAt {
		out[j], _ = verdicts.get(us[j])
	}
	st.mu.Unlock()
	return true
}

// batch evaluates OR over intermediates i of legOK(i) ∧ subᵢ.correct(u).
// The order of evaluation cannot change a disjunction, and semsim.Validate
// decides each answer by Eq. 3 whatever set it was asked for, so an
// answer's verdict is the same alone or in company. One search
// from the root settles the leg of every intermediate the requested answers
// are reached through; then each leg-correct intermediate runs its own batch
// over the answers it reaches that no earlier chain has validated yet.
func (l *levelOracle) batch(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
	if l.subs == nil {
		return l.legBatch(ctx, env, us, out)
	}
	clear(out)
	wanted := make([]bool, len(l.subs))
	var legs []kg.NodeID
	var legOf []uint16 // legOf[i] is the sub whose root is legs[i]
	for _, u := range us {
		for _, k := range l.reach(u) {
			if !wanted[k] {
				wanted[k] = true
				legs, legOf = append(legs, l.subs[k].key.root), append(legOf, k)
			}
		}
	}
	legOK := make([]bool, len(legs))
	if !l.legBatch(ctx, env, legs, legOK) {
		return false
	}
	correct := make([]bool, len(l.subs)) // the sub's leg is correct
	for i, ok := range legOK {
		correct[legOf[i]] = ok
	}
	through := make([][]int, len(l.subs)) // positions in us
	for j, u := range us {
		for _, k := range l.reach(u) {
			if correct[k] {
				through[k] = append(through[k], j)
			}
		}
	}
	var open []kg.NodeID
	var verdicts []bool
	for k, reaches := range through {
		at := reaches[:0]
		open = open[:0]
		for _, j := range reaches {
			if !out[j] {
				at, open = append(at, j), append(open, us[j])
			}
		}
		if len(at) == 0 {
			continue
		}
		verdicts = sized(verdicts, len(open))
		if !l.subs[k].batch(ctx, env, open, verdicts) {
			return false
		}
		for i, j := range at {
			out[j] = verdicts[i]
		}
	}
	return true
}

// allPaths is the oracle of a decomposed query (§V-B): an answer is correct
// only if every path validates it.
type allPaths []*levelOracle

func (a allPaths) batch(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
	for j := range out {
		out[j] = true
	}
	verdicts := make([]bool, len(us))
	for _, l := range a {
		if !l.batch(ctx, env, us, verdicts) {
			return false
		}
		for j, v := range verdicts {
			out[j] = out[j] && v
		}
	}
	return true
}

// newAnswerSpace builds the space over answers in ascending NodeID order,
// normalising their masses in that order (so a space's probabilities do not
// depend on how its answers were collected).
func newAnswerSpace(answers []kg.NodeID, probs []float64, oracle oracle) (*answerSpace, error) {
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
	return &answerSpace{
		answers:  answers,
		probs:    probs,
		alias:    alias,
		oracle:   oracle,
		verdicts: make([]atomic.Uint32, len(answers)),
	}, nil
}

// convergedStage returns the converged stage for key under the walk
// configuration in o, consulting the engine's answer-space cache first. A
// miss builds the walker over the query's graph view, converges it and
// extracts π′, then publishes the stage for every later query with the same
// key; concurrent misses build independently and converge on the
// first-published entry.
//
// Epoch discipline: a cached stage is served only when its build epoch is
// at or below the view's (older is fine — mutation-scope invalidation
// guarantees nothing in the stage's bound changed since it was built); a
// fresh build is tagged with the view's epoch and its walk scope, the unit
// of selective invalidation.
func (e *Engine) convergedStage(ctx context.Context, o Options, v view,
	key stageKey, mask func() typeMask, sb *spaceBuild) (*stageEntry, error) {

	if st := e.cachedStage(key, v, sb); st != nil {
		return st, nil
	}
	return e.buildStage(ctx, o, v, key, mask(), sb)
}

// typeMask is the candidate-type test of one (view, type set) as a bitmap
// over the view's node ids: bit u is set iff node u carries one of the
// types. A chain level's onward stages all test the same types on the same
// view, so the level builds the bitmap once and each walker reads a bit
// instead of searching the node's type list.
type typeMask []uint64

// typeMaskOf builds the bitmap from the view's type index, which lists
// every node carrying a type (a shard partition narrows that list to its
// own nodes; no stage is ever built over one).
func typeMaskOf(g kg.ReadGraph, types []kg.TypeID) typeMask {
	m := make(typeMask, (g.NumNodes()+63)/64)
	for _, t := range types {
		for _, u := range g.NodesByType(t) {
			m[u>>6] |= 1 << (u & 63)
		}
	}
	return m
}

// lazyTypeMask defers typeMaskOf to the first stage that misses the cache:
// a level whose stages are all resident never builds it.
func lazyTypeMask(g kg.ReadGraph, types []kg.TypeID) func() typeMask {
	return sync.OnceValue(func() typeMask { return typeMaskOf(g, types) })
}

func (m typeMask) has(u kg.NodeID) bool { return m[u>>6]&(1<<(u&63)) != 0 }

func stageKeyOf(o Options, root kg.NodeID, pred kg.PredID, types []kg.TypeID) stageKey {
	return stageKey{
		root:  root,
		pred:  pred,
		types: typesKeyOf(types),
		n:     o.N,
	}
}

// cachedStage is the hit half of convergedStage: the resident stage for key
// that view v may read, or nil.
func (e *Engine) cachedStage(key stageKey, v view, sb *spaceBuild) *stageEntry {
	st := e.cache.getStage(key, v.epoch)
	if st != nil {
		sb.hit()
		sb.read(st)
	}
	return st
}

// buildStage is the miss half of convergedStage: converge a fresh walker
// and publish the stage. The caller has already consulted the cache; mask
// is the candidate-type test of key's types on v.
func (e *Engine) buildStage(ctx context.Context, o Options, v view,
	key stageKey, mask typeMask, sb *spaceBuild) (*stageEntry, error) {

	sb.build()
	metStageBuilds.Inc()
	endSpan := obs.TraceFrom(ctx).Span("walk_converge")
	w, err := walk.New(v.g, e.calc, key.root, key.pred, walk.Config{N: o.N})
	if err != nil {
		endSpan.End()
		return nil, err
	}
	// Everything the stage keeps is copied out of the walker below.
	defer w.Release()
	if _, err := w.ConvergeCtx(ctx); err != nil {
		endSpan.End()
		return nil, err
	}
	endSpan.EndWalk(w.Size())
	dist, err := w.AnswerDistributionFunc(mask.has)
	if err != nil {
		return nil, fmt.Errorf("core: stage rooted at %q: %w", v.g.Name(key.root), err)
	}
	// The scope is sorted: a cache matches mutations against the scopes of
	// its stages.
	st := e.cache.putStage(key, newStageEntry(dist.Answers, dist.Probs, v.epoch, sortedNodes(v.g, w.Scope())))
	if e.cache != nil {
		sb.read(st) // only a cached space keeps the union of its stages' scopes
	}
	return st, nil
}

// level is one decomposed path's contribution to an assembly: its final
// answers in ascending order with their visiting probabilities from the
// path's root, and the oracle that validates them.
type level struct {
	answers []kg.NodeID
	mass    []float64
	oracle  *levelOracle
}

// levelOfStage is the level of one hop from root: the converged stage's own
// distribution, put into NodeID order (its answers come in walk order).
func (e *Engine) levelOfStage(key stageKey, types []kg.TypeID, st *stageEntry) level {
	type pair struct {
		u kg.NodeID
		p float64
	}
	pairs := make([]pair, len(st.answers))
	for i, u := range st.answers {
		pairs[i] = pair{u, st.probs[i]}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.u, b.u) })
	lv := level{
		answers: make([]kg.NodeID, len(pairs)),
		mass:    make([]float64, len(pairs)),
		oracle:  e.stageLevel(key, types, st),
	}
	for i, pr := range pairs {
		lv.answers[i], lv.mass[i] = pr.u, pr.p
	}
	return lv
}

// stageLevel is the one-hop oracle over a converged stage: its key, and the
// stage itself only when no cache could return it by key later.
func (e *Engine) stageLevel(key stageKey, types []kg.TypeID, st *stageEntry) *levelOracle {
	l := &levelOracle{key: key, types: types}
	if e.cache == nil {
		l.st = st
	}
	return l
}

// chainSub is one expanded stage-one intermediate of a chain while its level
// is being assembled: the node's stage-one probability, then — filled by
// expandChain — the final answers its remaining hops reach with their
// visiting probabilities from it, and the oracle of that onward path, which
// starts out as the key of its next hop's stage. An intermediate that leads
// nowhere keeps nil answers and contributes nothing. With one hop left the
// answers and masses are the converged stage's own arrays, read in place;
// they go with the subs when the assembly is done, so the level's oracle
// never pins them. err is the onward build's failure, which leaves the
// intermediate leading nowhere unless failsChain says it fails the query.
type chainSub struct {
	prob    float64
	answers []kg.NodeID
	mass    []float64 // parallel to answers
	oracle  levelOracle
	err     error
}

// expandChain fills the onward half of every intermediate in subs, whose
// oracle already carries the stage key of its next hop. With one hop left
// the onward level is a converged stage whose answer and probability slices
// are read in place: a resident stage is picked up inline, so a chain build
// over warm stages starts no goroutine and copies no distribution. Misses,
// and deeper chains (which recurse), are independent builds and fan out over
// the engine's worker pool. A worker slot is acquired opportunistically:
// when the pool is saturated (many concurrent queries, or a deeper recursion
// level already took the slots) the build simply runs inline, which keeps
// the fan-out deadlock-free at any depth.
func (e *Engine) expandChain(ctx context.Context, o Options, v view, subs []chainSub, mask func() typeMask,
	hops []query.Hop, sb *spaceBuild) error {
	leaf := len(hops) == 1
	fill := func(sub *chainSub, st *stageEntry) {
		sub.answers, sub.mass = st.answers, st.probs
		if e.cache == nil {
			sub.oracle.st = st // see levelOracle.st
		}
	}
	build := func(sub *chainSub) {
		if leaf {
			var st *stageEntry
			if st, sub.err = e.buildStage(ctx, o, v, sub.oracle.key, mask(), sb); sub.err == nil {
				fill(sub, st)
			}
			return
		}
		var lv level
		if lv, sub.err = e.buildChainLevel(ctx, o, v, sub.oracle.key, sub.oracle.types, mask, hops, sb); sub.err == nil {
			sub.answers, sub.mass, sub.oracle = lv.answers, lv.mass, *lv.oracle
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
			if st := e.cachedStage(sub.oracle.key, v, sb); st != nil {
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

// hopKey resolves one hop from root into the key of its stage.
func hopKey(o Options, g kg.ReadGraph, root kg.NodeID, hop query.Hop) (stageKey, []kg.TypeID, error) {
	pred, err := resolvePred(g, hop.Predicate)
	if err != nil {
		return stageKey{}, nil, err
	}
	types, err := resolveTypes(g, hop.Types)
	if err != nil {
		return stageKey{}, nil, err
	}
	return stageKeyOf(o, root, pred, types), types, nil
}

// buildChainLevel returns the exact visiting distribution over the final
// hop's answers together with the data of a lazy correctness oracle,
// recursing over the chain's hops: π(j) = Σᵢ π′ᵢ · π′ⱼ|ᵢ (§V-B). key is the
// stage of hops[0] from the level's root, of target types types, and mask
// returns their candidate test on v.
func (e *Engine) buildChainLevel(ctx context.Context, o Options, v view, key stageKey, types []kg.TypeID,
	mask func() typeMask, hops []query.Hop, sb *spaceBuild) (level, error) {
	st, err := e.convergedStage(ctx, o, v, key, mask, sb)
	if err != nil {
		return level{}, err
	}
	if len(hops) == 1 {
		return e.levelOfStage(key, types, st), nil
	}

	// Multi-hop: expand every intermediate, most probable first, recursing
	// into the remaining hops from each.
	if len(st.answers) > math.MaxUint16+1 {
		return level{}, fmt.Errorf("core: chain stage rooted at %q has %d intermediates, more than the %d a level indexes: %w",
			v.g.Name(key.root), len(st.answers), math.MaxUint16+1, errWideLevel)
	}
	noAnswers := func() error {
		return fmt.Errorf("core: chain stage rooted at %q found no final answers", v.g.Name(key.root))
	}
	next, nextTypes, err := hopKey(o, v.g, 0, hops[1])
	if err != nil {
		return level{}, noAnswers() // as when every onward build fails
	}
	type ranked struct {
		node kg.NodeID
		prob float64
	}
	top := make([]ranked, len(st.answers))
	for i, u := range st.answers {
		top[i] = ranked{u, st.probs[i]}
	}
	slices.SortFunc(top, func(a, b ranked) int {
		if a.prob != b.prob {
			return cmp.Compare(b.prob, a.prob)
		}
		return cmp.Compare(a.node, b.node)
	})
	subs := make([]chainSub, len(top))
	for i, r := range top {
		next.root = r.node
		subs[i] = chainSub{prob: r.prob, oracle: levelOracle{key: next, types: nextTypes}}
	}
	// Every intermediate's next hop tests the same types on the same view.
	if err := e.expandChain(ctx, o, v, subs, lazyTypeMask(v.g, nextTypes), hops[1:], sb); err != nil {
		return level{}, err
	}

	// Accumulate sequentially in intermediate order so the assembled π is
	// deterministic regardless of which goroutine finished first. Answers
	// get dense ids in order of first sight.
	for k := range subs {
		if failsChain(subs[k].err) {
			return level{}, subs[k].err
		}
	}
	// slot[u] is 1 + the id of answer u, 0 until it is first seen. The
	// stages were built at the view's epoch or an older one, and node ids
	// are never reused, so the view's node count covers every answer.
	slot := slotFree.take(v.g.NumNodes())
	var answers []kg.NodeID
	defer func() { slotFree.release(slot, answers) }()
	var mass []float64
	var fanIn []int32
	for k := range subs {
		sub := &subs[k]
		for j, u := range sub.answers {
			id := slot[u] - 1
			if id < 0 {
				id = int32(len(answers))
				slot[u] = id + 1
				answers = append(answers, u)
				mass = append(mass, 0)
				fanIn = append(fanIn, 0)
			}
			mass[id] += sub.prob * sub.mass[j]
			if sub.mass[j] > 0 {
				fanIn[id]++
			}
		}
	}
	if len(answers) == 0 {
		return level{}, noAnswers()
	}
	// Put the answers into NodeID order; from here on slot[u] is 1 + the
	// position of answer u.
	out := level{answers: sortedNodes(v.g, answers), mass: make([]float64, len(answers))}
	// Row i of the reach index lists the intermediates whose walk reaches
	// answer i, most probable first (the order of subs) — built once, here,
	// so the oracle never scans intermediates × answers and the build
	// allocates two arrays, not one slice per answer.
	rowStart := make([]int32, len(answers)+1)
	for i, u := range out.answers {
		id := slot[u] - 1
		slot[u] = int32(i) + 1
		out.mass[i] = mass[id]
		rowStart[i+1] = rowStart[i] + fanIn[id]
	}
	rows := make([]uint16, rowStart[len(answers)])
	cursor := fanIn // reused as the per-row fill cursor
	copy(cursor, rowStart)
	for k := range subs {
		for j, p := range subs[k].mass {
			if i := slot[subs[k].answers[j]] - 1; p > 0 {
				rows[cursor[i]] = uint16(k)
				cursor[i]++
			}
		}
	}
	out.oracle = e.stageLevel(key, types, st)
	out.oracle.subs = make([]levelOracle, len(subs))
	for k := range subs {
		out.oracle.subs[k] = subs[k].oracle
	}
	out.oracle.answers, out.oracle.rowStart, out.oracle.rows = out.answers, rowStart, rows
	return out, nil
}

// buildAssemblySpace implements decomposition–assembly (§V-B): one level per
// decomposed path, intersected. The assembled distribution is the normalised
// product of per-path visiting probabilities (an answer must be reachable by
// every constraint's walk), and an answer is correct only if every path
// validates it. The space is tagged with the view's epoch and the union of
// the scopes of the stages it read, and charged what it holds.
func (e *Engine) buildAssemblySpace(ctx context.Context, o Options, v view, paths []query.Path, sb *spaceBuild) (*answerSpace, error) {
	levels := make([]level, 0, len(paths))
	for _, p := range paths {
		us, err := resolveRoot(v.g, p)
		if err != nil {
			return nil, err
		}
		if len(p.Hops) == 0 {
			return nil, fmt.Errorf("core: empty hop sequence")
		}
		key, types, err := hopKey(o, v.g, us, p.Hops[0])
		var lv level
		if err == nil {
			lv, err = e.buildChainLevel(ctx, o, v, key, types, lazyTypeMask(v.g, types), p.Hops, sb)
		}
		if err != nil {
			if len(paths) > 1 {
				err = fmt.Errorf("core: sub-query rooted at %q: %w", p.RootName, err)
			}
			return nil, err
		}
		levels = append(levels, lv)
	}
	answers, probs := levels[0].answers, levels[0].mass
	var orc oracle = levels[0].oracle
	if len(levels) > 1 {
		// Intersect the ascending answer lists, multiplying masses in path
		// order.
		all := make(allPaths, len(levels))
		for k, lv := range levels {
			all[k] = lv.oracle
		}
		orc = all
		first := levels[0]
		answers, probs = make([]kg.NodeID, 0, len(first.answers)), make([]float64, 0, len(first.answers))
		at := make([]int, len(levels))
	next:
		for i, u := range first.answers {
			p := first.mass[i]
			for k := 1; k < len(levels); k++ {
				lv := &levels[k]
				for at[k] < len(lv.answers) && lv.answers[at[k]] < u {
					at[k]++
				}
				if at[k] == len(lv.answers) || lv.answers[at[k]] != u {
					continue next
				}
				p *= lv.mass[at[k]]
			}
			answers, probs = append(answers, u), append(probs, p)
		}
		if len(answers) == 0 {
			return nil, fmt.Errorf("core: decomposition–assembly intersection is empty")
		}
	}
	sp, err := newAnswerSpace(answers, probs, orc)
	if err != nil {
		return nil, err
	}
	sp.epoch = v.epoch
	if sb != nil && e.cache != nil {
		sp.scope = sb.unionScope(v.g)
	}
	// Approximate resident bytes: per candidate its id, probability, alias
	// slot and verdict; the oracles' data; the scope list.
	sp.cost = 256 + int64(len(answers))*(4+8+8+4) + int64(len(sp.scope))*4
	for _, lv := range levels {
		sp.cost += lv.oracle.bytes()
	}
	return sp, nil
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
	// Correctness uses the engine's validator, so the ablation isolates the
	// sampling step (S1) exactly as in Fig. 5a.
	pred, err := resolvePred(v.g, p.Hops[0].Predicate)
	if err != nil {
		return nil, nil, err
	}
	sp := &answerSpace{
		answers:  ts.Answers,
		probs:    ts.Probs,
		alias:    alias,
		oracle:   &topologyOracle{root: us, pred: pred},
		verdicts: make([]atomic.Uint32, len(ts.Answers)),
	}
	return sp, ts.Draws, nil
}

// topologyOracle validates the answers of a topology-sampled space: one
// search per request from the query's root.
type topologyOracle struct {
	root kg.NodeID
	pred kg.PredID
}

func (t *topologyOracle) batch(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
	_, err := semsim.Validate(ctx, env.v.g, env.e.calc, t.root, t.pred, us, out,
		semsim.ValidatorConfig{MaxLen: env.o.N, Tau: env.o.Tau})
	return err == nil
}
