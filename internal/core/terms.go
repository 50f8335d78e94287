package core

import (
	"context"
	"math"
	"slices"
	"strconv"
	"unsafe"

	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/obs"
	"kgaq/internal/query"
)

// This file is the data path every refinement loop shares (DESIGN.md
// "Running moments and the term table"). A candidate answer is evaluated at
// most once per execution — verdict, filters, attribute values, group — and
// remembered in the execution's term table; a census that settled every
// candidate publishes its table on the answer space, and a later execution
// of the same key adopts it and evaluates nothing. A round folds only its
// fresh draws, by table lookup, into one running-moments accumulator per
// (spec, group), and the estimate and its margin are read from those
// moments. No loop rebuilds an observation list.

// termSpec is one aggregate the table evaluates candidates against: the
// single aggregate of Refine and FederateSample, or each AggSpec of a
// multi-aggregate execution.
type termSpec struct {
	fn   query.AggFunc
	attr kg.AttrID // InvalidAttr for COUNT(*)
}

// Per-candidate state bits of the term table.
const (
	// termKnown: the candidate was evaluated and its terms are recorded. It
	// is set only when the candidate's validation ran to completion, so a
	// cancelled round leaves its candidates unknown, never wrongly incorrect.
	termKnown uint8 = 1 << iota
	// termCorrect: semantic verdict ∧ every filter passed — the correctness
	// indicator c(u) of §V-A, shared by all specs.
	termCorrect
	// termSeen: the candidate occurs among the folded draws (Result.Distinct).
	termSeen
	// termQueued marks a candidate inside one pass that must visit it once
	// (the evaluation queue, the distinct count of an unfolded tail); every
	// such pass clears the marks it set.
	termQueued
)

// termTable is one execution's sample in reduced form: what is known of
// each candidate, and the running moments of the draws folded so far. It
// belongs to the Execution and survives between Refine calls; a one-shot
// execution borrows the one inside its scratch (bindTerms).
type termTable struct {
	specs   []termSpec
	grouped bool

	// state is per candidate and per execution: the termKnown and
	// termCorrect bits it settled or adopted, and its own seen and queued
	// marks.
	state []uint8
	// *termCols are the settled columns every read goes through: own, which
	// record and tally fill, or — adopted — a published table's, which
	// nothing writes (bindTerms).
	*termCols
	own     termCols
	adopted bool

	// groupIDs keys a group by the bits of its attribute value, naGroup is
	// the group of the answers without the attribute (0 until one is seen);
	// record interns groups through them into own.
	groupIDs map[uint64]int32
	naGroup  int32

	// The fold. drawIdx[:folded] is in the accumulators; acc holds them at
	// g·K+k, best the running extreme of each MAX/MIN spec (NaN until a
	// correct draw).
	folded   int
	distinct int
	correct  int // folded draws of termCorrect candidates
	acc      []estimate.Running
	best     []float64
	// stratum is marginOf's stratum list: the sample is one stratum of
	// weight 1, held here so that reading a margin allocates nothing.
	stratum [1]estimate.Moments
}

// termCols is what evaluation settles of the candidates beyond their state
// bits, and a census's tally of it. Nothing in it depends on the draws: the
// Horvitz–Thompson weight 1/p and term v/p are recomputed from the space's
// probabilities at each fold, bit for bit, so they are not stored.
type termCols struct {
	// group is the GROUP-BY group id of each correct candidate (0 for the
	// others). Groups get dense ids in order of first sight; id 0 is the
	// whole sample, labels[g] the printed value of group g.
	group  []int32
	labels []string
	// Per candidate and spec, at i·K+k: the attribute value and whether the
	// candidate has the attribute at all.
	val []float64
	has []bool
	// cells is a census's tally (tally), at g·K+k.
	cells []exactCell
}

// publishedTerms is a term table a census settled — every candidate known
// — published on its answer space for every later execution of the same
// key: the known and correct bits, the settled columns and the census
// tally, nothing of the draws. It is immutable once published.
type publishedTerms struct {
	termKey
	state []uint8 // termKnown, and termCorrect where set, of every candidate
	cols  termCols
	bytes int64 // what it holds, charged to the space's cost
}

// termKey is what a settled term table is a function of besides its answer
// space: the aggregate binding — the filters, the GROUP-BY attribute and,
// in the specs, the aggregated attributes — and the view epoch whose
// attribute values it read. Attribute-only mutations leave a space valid
// across epochs, so a table is served at its own epoch only.
type termKey struct {
	epoch   uint64
	group   kg.AttrID
	filters []resolvedFilter
	specs   []termSpec
}

// binds reports whether k and o bind the same aggregate, at any epochs.
func (k *termKey) binds(o *termKey) bool {
	return k.group == o.group && slices.Equal(k.filters, o.filters) && slices.Equal(k.specs, o.specs)
}

// published copies the table a census settled out for publication under
// key: the state bits without the execution's own marks, the columns and
// the tally. Group ids and labels are copied as they are, so the adopting
// executions number the groups alike.
func (t *termTable) published(key termKey) *publishedTerms {
	pt := &publishedTerms{termKey: key, state: make([]uint8, len(t.state))}
	for i, s := range t.state {
		pt.state[i] = s & (termKnown | termCorrect)
	}
	pt.cols = termCols{
		labels: slices.Clone(t.labels),
		val:    slices.Clone(t.val),
		has:    slices.Clone(t.has),
		cells:  slices.Clone(t.cells),
	}
	if t.grouped {
		pt.cols.group = slices.Clone(t.group)
	}
	// Approximate resident bytes: the header, the per-candidate arrays, the
	// tally and the key's lists, the labels with their string headers.
	pt.bytes = int64(unsafe.Sizeof(*pt)) + int64(len(pt.state)) + 4*int64(len(pt.cols.group)) +
		9*int64(len(pt.cols.val)) + int64(unsafe.Sizeof(exactCell{}))*int64(len(pt.cols.cells)) +
		int64(unsafe.Sizeof(termSpec{}))*int64(len(key.specs)) +
		int64(unsafe.Sizeof(resolvedFilter{}))*int64(len(key.filters))
	for _, l := range pt.cols.labels {
		pt.bytes += 16 + int64(len(l))
	}
	return pt
}

// exactCell is one (group, spec) tally of a census: how many candidates are
// correct for the spec, the sum of their values and their extreme (NaN
// until the first).
type exactCell struct {
	n    int
	sum  float64
	best float64
}

// sized returns buf with length n, reallocating only when capacity is short.
// The contents are unspecified: every table array is written before it is
// read, guarded by the state bits, except state itself.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reset sizes the table for n candidates and empties it: every candidate
// unknown, its own columns to fill — or, given a published table, every
// candidate known from the published bits and the published columns read in
// place.
func (t *termTable) reset(n int, grouped bool, specs []termSpec, pub *publishedTerms) {
	t.specs = append(t.specs[:0], specs...)
	t.grouped = grouped
	k := len(specs)
	t.state = sized(t.state, n)
	t.folded, t.distinct, t.correct = 0, 0, 0
	if pub != nil {
		copy(t.state, pub.state)
		t.termCols, t.adopted = &pub.cols, true
		t.acc = sized(t.acc, len(pub.cols.labels)*k)
	} else {
		clear(t.state)
		t.termCols, t.adopted = &t.own, false
		t.val = sized(t.val, n*k)
		t.has = sized(t.has, n*k)
		t.labels = append(t.labels[:0], "")
		t.naGroup = 0
		if grouped {
			t.group = sized(t.group, n)
			if t.groupIDs == nil {
				t.groupIDs = map[uint64]int32{}
			}
			clear(t.groupIDs)
		}
		t.acc = sized(t.acc, k)
	}
	clear(t.acc)
	t.best = sized(t.best, k)
	for i := range t.best {
		t.best[i] = math.NaN()
	}
}

// heldBytes is what the table's arrays pin, the free list's retention
// measure (putScratch).
func (t *termTable) heldBytes() int {
	o := &t.own
	return cap(t.state) + 4*cap(o.group) + 8*cap(o.val) + cap(o.has) +
		int(unsafe.Sizeof(estimate.Running{}))*cap(t.acc) + int(unsafe.Sizeof(exactCell{}))*cap(o.cells)
}

// groupOf interns the GROUP-BY group of an answer: by attribute value, with
// one group for the answers that lack the attribute. The label — the value
// formatted as the API prints it — is built once per group, and a new group
// extends acc by one zeroed accumulator per spec.
func (t *termTable) groupOf(v float64, present bool) int32 {
	if !present {
		if t.naGroup == 0 {
			t.naGroup = t.addGroup("n/a")
		}
		return t.naGroup
	}
	if v != v {
		v = math.NaN() // every NaN prints alike: one group
	}
	key := math.Float64bits(v)
	id, ok := t.groupIDs[key]
	if !ok {
		id = t.addGroup(strconv.FormatFloat(v, 'g', -1, 64))
		t.groupIDs[key] = id
	}
	return id
}

func (t *termTable) addGroup(label string) int32 {
	id := int32(len(t.labels))
	t.labels = append(t.labels, label)
	for range t.specs {
		t.acc = append(t.acc, estimate.Running{})
	}
	return id
}

// specCorrect reports whether candidate i counts as correct for spec k (an
// unknown candidate never does): the shared indicator, and — for every aggregate but COUNT — the
// aggregated attribute present (an answer without it cannot contribute to
// SUM, AVG, MAX or MIN).
func (t *termTable) specCorrect(i, k int) bool {
	if t.state[i]&termCorrect == 0 {
		return false
	}
	return t.specs[k].fn == query.Count || t.has[i*len(t.specs)+k]
}

// bindTerms attaches the execution's term table for the given specs. An
// interactive execution allocates its own on the first refinement call and
// keeps it — and with it the sample — for the later ones; a one-shot
// execution uses the table inside the scratch it holds and leaves the arrays
// there (holdScratch's release). When a census of the same key has
// published its table on the space, the execution adopts it: every
// candidate is known, and nothing is evaluated again.
func (x *Execution) bindTerms(specs ...termSpec) {
	if x.tab != nil {
		return
	}
	if x.oneShot {
		x.tab = &x.scr.tab
	} else {
		x.tab = new(termTable)
	}
	var pub *publishedTerms
	if key, ok := x.termKey(specs); ok {
		pub = x.sp.publishedTerms(&key)
	}
	x.tab.reset(x.sp.len(), x.group != kg.InvalidAttr, specs, pub)
}

// termKey is the key of the execution's term table over specs. ok is false
// when the table may be neither published nor adopted: under the
// SkipValidation ablation, whose correct bits are not the validator's.
func (x *Execution) termKey(specs []termSpec) (key termKey, ok bool) {
	key = termKey{epoch: x.v.epoch, group: x.group, filters: x.filters, specs: specs}
	return key, !x.opts.SkipValidation
}

// publishTerms offers the table a census has just settled to the answer
// space, for every later execution of its key to adopt. Only a space the
// cache holds takes it (spaceCache.publishTerms); the copy is made only
// when the space would.
func (x *Execution) publishTerms() {
	key, ok := x.termKey(x.tab.specs)
	if !ok || !x.sp.resident.Load() || !x.sp.wantsTerms(&key) {
		return
	}
	key.specs = slices.Clone(key.specs)
	x.e.cache.publishTerms(x.sp, x.tab.published(key))
}

// record evaluates candidate i under a completed validation verdict and
// stores it in the table's own columns: the §V-A indicator
// c(u) = (L ≤ u.b ≤ U ∧ s ≥ τ), each spec's attribute value, and the group.
// This is the one place a candidate is looked at; every draw of it
// afterwards is a lookup. (A candidate without draw probability has no HT
// weight and is recorded incorrect; the alias tables never draw one.)
func (x *Execution) record(i int, verdict bool) {
	t, g, u := x.tab, x.v.g, x.sp.answers[i]
	state := termKnown
	if verdict && x.sp.probs[i] > 0 {
		state |= termCorrect
		for _, f := range x.filters {
			v, ok := g.Attr(u, f.attr)
			if !ok || v < f.low || v > f.high {
				state = termKnown
				break
			}
		}
	}
	k := len(t.specs)
	for j, spec := range t.specs {
		at := i*k + j
		t.val[at], t.has[at] = 0, false
		if spec.attr == kg.InvalidAttr {
			continue
		}
		if v, ok := g.Attr(u, spec.attr); ok {
			t.val[at], t.has[at] = v, true
		}
	}
	if t.grouped {
		t.group[i] = 0
		if state&termCorrect != 0 {
			t.group[i] = t.groupOf(g.Attr(u, x.group))
		}
	}
	t.state[i] = state
}

// evaluate settles every not-yet-known candidate among the fresh draws: one
// batch validation over the distinct new candidates (none under
// SkipValidation), then one record each. It is the only cancellable part of
// a round and reports false when ctx cut it short: a verdict is recorded
// only when its validation ran to completion, so the candidates of a
// cancelled batch stay unknown, and a batch that completed is never
// reported cut, however soon after ctx turns cancelled.
func (x *Execution) evaluate(ctx context.Context, fresh []int) bool {
	fireValidatePoint()
	t := x.tab
	queue := x.scr.freshIdx[:0]
	for _, i := range fresh {
		if t.state[i]&(termKnown|termQueued) == 0 {
			t.state[i] |= termQueued
			queue = append(queue, i)
		}
	}
	x.scr.freshIdx = queue
	// record overwrites the queue mark; what a cancellation — or a panic
	// inside validation, which an interactive execution outlives — left
	// unevaluated is unmarked here.
	defer func() {
		for _, i := range queue {
			t.state[i] &^= termQueued
		}
	}()
	return x.settle(ctx, queue)
}

// settle decides and records the queued candidates, in queue order, and
// reports whether it reached the end of the queue. A candidate some
// execution of the plan has already validated is read off the space's shared
// verdicts; only the others go to the oracle, and what it settles — when,
// and only when, the validation ran to completion — is published there for
// every later execution before anything is recorded here.
func (x *Execution) settle(ctx context.Context, queue []int) bool {
	if len(queue) == 0 {
		return true
	}
	if x.opts.SkipValidation {
		// The Fig. 5b ablation trusts the sampler blindly.
		for _, i := range queue {
			x.record(i, true)
		}
		return true
	}
	sp := x.sp
	verdicts := sized(x.scr.verdicts, len(queue))
	x.scr.verdicts = verdicts
	open := x.scr.openAt[:0] // positions in queue nobody has settled yet
	for k, i := range queue {
		if v := sp.verdicts[i].Load(); v == verdictUnknown {
			open = append(open, k)
		} else {
			verdicts[k] = v == verdictCorrect
		}
	}
	x.scr.openAt = open
	if hits := len(queue) - len(open); hits > 0 {
		metVerdictHits.Add(float64(hits))
		obs.TraceFrom(ctx).Add("verdict_cache_hits", float64(hits))
	}
	if len(open) > 0 {
		if !x.validate(ctx, queue, open, verdicts) {
			return false
		}
		for _, k := range open {
			v := verdictIncorrect
			if verdicts[k] {
				v = verdictCorrect
			}
			sp.verdicts[queue[k]].Store(v)
		}
	}
	for k, i := range queue {
		x.record(i, verdicts[k])
	}
	return true
}

// oracleEnv is the execution's side of a validation: its engine, its options
// and the one graph view it observes.
func (x *Execution) oracleEnv() oracleEnv { return oracleEnv{e: x.e, o: x.opts, v: x.v} }

// validate batch-validates the candidates at the open positions of queue
// into the same positions of out, in one shared search, and reports whether
// the validation ran to completion.
func (x *Execution) validate(ctx context.Context, queue, open []int, out []bool) bool {
	sp := x.sp
	nodes := x.scr.freshNodes[:0]
	for _, k := range open {
		nodes = append(nodes, sp.answers[queue[k]])
	}
	x.scr.freshNodes = nodes
	res := sized(x.scr.freshVerdicts, len(nodes))
	x.scr.freshVerdicts = res
	if !sp.oracle.batch(ctx, x.oracleEnv(), nodes, res) {
		return false
	}
	for j, k := range open {
		out[k] = res[j]
	}
	return true
}

// fold adds the fresh draws drawIdx[folded:] to the running moments. Every
// candidate among them is known (evaluate succeeded), so it cannot fail and
// is never cancelled: a round folds all of its draws or none, which is what
// lets a Refine interrupted mid-validation be resumed by a later one without
// counting a draw twice.
//
// A correct draw adds its Horvitz–Thompson terms — weight c = 1/p and, per
// valued spec, v/p, with p its draw probability — to the whole-sample
// accumulator of every spec it is correct for, and to its group's; an
// incorrect draw, an out-of-group draw and a draw missing a spec's attribute
// are zero terms there, which the accumulators never see — the read-out
// merges them as the folded draw count minus the accumulator's
// (estimate.Running).
func (x *Execution) fold() {
	t := x.tab
	k := len(t.specs)
	for _, i := range x.drawIdx[t.folded:] {
		state := t.state[i]
		if state&termSeen == 0 {
			t.state[i] = state | termSeen
			t.distinct++
		}
		if state&termCorrect == 0 {
			continue
		}
		t.correct++
		p := x.sp.probs[i]
		c := 1 / p
		g := 0
		if t.grouped {
			g = int(t.group[i])
		}
		for j, spec := range t.specs {
			s := c
			if spec.fn != query.Count {
				at := i*k + j
				if !t.has[at] {
					continue
				}
				v := t.val[at]
				s = v / p
				if !spec.fn.HasGuarantee() &&
					(math.IsNaN(t.best[j]) || (spec.fn == query.Max && v > t.best[j]) || (spec.fn == query.Min && v < t.best[j])) {
					t.best[j] = v
				}
			}
			t.acc[j].Add(s, c)
			if g != 0 {
				t.acc[g*k+j].Add(s, c)
			}
		}
	}
	t.folded = len(x.drawIdx)
}

// advance brings the running moments up to the draw list: evaluate the new
// candidates of the fresh draws, then fold the fresh draws, up to the
// estimation edge. It reports false when ctx cut the evaluation short, in
// which case nothing was folded.
func (x *Execution) advance(ctx context.Context) bool {
	done := x.evaluate(ctx, x.drawIdx[x.tab.folded:])
	if done {
		x.fold()
	}
	x.clk.edge(&x.clk.times.Estimation)
	return done
}

// tally is the census's read-out: one pass over every candidate in
// ascending index (= NodeID) order, adding each one correct for a spec to
// that spec's cell for the whole candidate set and for its group. Summing in
// that order is what makes a census SUM or AVG bit-identical to an exact
// aggregate over the same answers (baselines.AggregateOver). Every
// candidate must be known.
func (t *termTable) tally() {
	k := len(t.specs)
	t.cells = sized(t.cells, len(t.labels)*k)
	for c := range t.cells {
		t.cells[c] = exactCell{best: math.NaN()}
	}
	for i, state := range t.state {
		if state&termCorrect == 0 {
			continue
		}
		g := 0
		if t.grouped {
			g = int(t.group[i])
		}
		for j, spec := range t.specs {
			v := 0.0
			if spec.fn != query.Count {
				at := i*k + j
				if !t.has[at] {
					continue
				}
				v = t.val[at]
			}
			t.cells[j].add(spec.fn, v)
			if g != 0 {
				t.cells[g*k+j].add(spec.fn, v)
			}
		}
	}
}

func (c *exactCell) add(fn query.AggFunc, v float64) {
	c.n++
	c.sum += v
	if math.IsNaN(c.best) || (fn == query.Max && v > c.best) || (fn == query.Min && v < c.best) {
		c.best = v
	}
}

// exact is spec k's aggregate over every candidate of group g (0: all of
// them) from the census tally, and how many candidates are correct for the
// spec: COUNT counts them, SUM sums their values, AVG is that sum over their
// count, MAX and MIN their extreme. With no such candidate AVG, MAX and MIN
// have no value (estimate.ErrNoCorrect); COUNT and SUM are 0.
func (t *termTable) exact(g, k int) (float64, int, error) {
	c := t.cells[g*len(t.specs)+k]
	switch fn := t.specs[k].fn; {
	case fn == query.Count:
		return float64(c.n), c.n, nil
	case fn == query.Sum:
		return c.sum, c.n, nil
	case c.n == 0:
		return 0, 0, estimate.ErrNoCorrect
	case fn == query.Avg:
		return c.sum / float64(c.n), c.n, nil
	default:
		return c.best, c.n, nil
	}
}

// moments reads spec k of group g (0: the whole sample) out as moments. The
// sample is every folded draw: whatever the accumulator did not see is a
// zero.
func (t *termTable) moments(g, k int) estimate.Moments {
	return t.acc[g*len(t.specs)+k].Moments(t.folded)
}

// hits counts the folded draws correct for spec k inside group g (0: the
// whole sample) — Result.Correct, and a group's Draws.
func (t *termTable) hits(g, k int) int {
	return t.acc[g*len(t.specs)+k].Correct()
}

// estimateOf is the Horvitz–Thompson point estimate of spec k from its
// moments (Eq. 7–9). MAX and MIN report the running extreme over the draws
// correct for the spec.
func (x *Execution) estimateOf(k int, m estimate.Moments) (float64, error) {
	t, fn := x.tab, x.tab.specs[k].fn
	if fn.HasGuarantee() {
		return m.Estimate(fn, x.opts.Policy)
	}
	if t.folded == 0 {
		return 0, estimate.ErrNoObservations
	}
	if math.IsNaN(t.best[k]) {
		return 0, estimate.ErrNoCorrect
	}
	return t.best[k], nil
}

// marginOf is ε of spec k: the closed-form CLT margin over the moments, a
// sample of one stratum of weight 1. ε is a function of the moments alone:
// it consumes no randomness, so the draw stream stays a function of draw
// counts and pooled and unpooled execution, or a QueryMulti and sequential
// Query calls over the same plan, sample identically.
func (x *Execution) marginOf(k int, m estimate.Moments) (float64, error) {
	t := x.tab
	t.stratum[0] = m
	return estimate.MoEMoments(t.specs[k].fn, t.stratum[:], x.opts.Policy, x.opts.guarantee())
}

// sampleCounts returns the correct draws for spec k (k < 0: by the shared
// indicator alone) and the distinct answers of the whole draw list. The
// folded draws come from the fold's own counters. A tail the fold has not
// reached exists only when a refinement was cut short; its draws of known
// candidates are counted here and an unknown candidate counts as incorrect.
func (x *Execution) sampleCounts(k int) (correct, distinct int) {
	t := x.tab
	correct, distinct = t.correct, t.distinct
	if k >= 0 {
		correct = t.hits(0, k)
	}
	tail := x.drawIdx[t.folded:]
	for _, i := range tail {
		state := t.state[i]
		if state&(termSeen|termQueued) == 0 {
			t.state[i] |= termQueued
			distinct++
		}
		if k < 0 && state&termCorrect != 0 || k >= 0 && t.specCorrect(i, k) {
			correct++
		}
	}
	for _, i := range tail {
		t.state[i] &^= termQueued
	}
	return correct, distinct
}
