package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// resolvedFilter is a query filter with its attribute interned.
type resolvedFilter struct {
	attr kg.AttrID
	low  float64
	high float64
}

// Execution is a started query whose sample can be refined incrementally —
// the interactive scenario of §IV-C where the user tightens eb at runtime
// and the engine reuses everything collected so far.
//
// An Execution carries its own RNG, draw list and term table and must not
// be shared across goroutines; concurrency happens by running
// many Executions of one Engine in parallel.
type Execution struct {
	e       *Engine
	q       *query.Aggregate
	v       view    // the epoch-consistent graph view this query observes
	opts    Options // engine options with per-query overrides applied
	onRound func(Round)
	degrade Degradation // deadline-aware degradation (disabled by default)
	attr    kg.AttrID
	group   kg.AttrID
	filters []resolvedFilter

	degraded bool    // the guarantee loop stopped early under degrade
	targetEB float64 // the bound the last Refine targeted

	sp      *answerSpace
	sh      *shardedSpace // non-nil when Options.Shards > 1
	rng     *rand.Rand    // the draw stream: consumed by sampling alone
	scr     *execScratch  // pooled hot-loop buffers, held per Refine call
	drawIdx []int
	// tab is the sample in reduced form: what is known of each candidate and
	// the running moments of the draws folded so far (terms.go).
	tab *termTable
	// oneShot marks an execution that dies with its first refinement call
	// (Query, QueryMulti, FederateSample): nothing reads its draw list or
	// term table afterwards, so both live in the scratch (holdScratch).
	oneShot bool
	rounds  []Round
	times   StepTimes
	// drawCost is what the latest sampleMore took: the sampling share of
	// the round it feeds, which the degradation check prices in.
	drawCost time.Duration

	// Telemetry bookkeeping. reportedTimes is what earlier result() calls on
	// this execution already exported to the step-seconds metrics, so
	// interactive re-Refine exports deltas, never double-counts. The trace*
	// fields are the previous traced round's cumulative readings, turning the
	// trace counters into per-round figures.
	reportedTimes  StepTimes
	traceSampleAt  int
	traceValidated float64
	traceHits      float64
}

// Start validates and prepares a query: decomposition, walker construction,
// convergence, and the answer distribution — everything up to (but not
// including) drawing the sample. The preparation time is charged to the
// sampling step. ctx cancels the preparation (walker convergence and space
// assembly are the heavy parts); a cancelled Start returns ErrInterrupted.
//
// The execution is pinned to the engine's graph view current at this call
// (or the first view satisfying WithMinEpoch): every later Refine reads
// that one epoch, however many mutations land meanwhile.
//
// Start is a thin wrapper over the two-phase API: it Prepares a
// single-use plan and starts its one execution. Workloads that re-execute
// a query graph (or fan several aggregates over one sample) should call
// Engine.Prepare once and reuse the plan.
func (e *Engine) Start(ctx context.Context, q *query.Aggregate, opts ...QueryOption) (x *Execution, err error) {
	defer catchPanics(q, &err)
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.queryConfig(opts)
	if cfg.opts.Sampler != SamplerSemantic {
		return e.startTopology(ctx, q, cfg)
	}
	p, err := e.prepare(ctx, q, cfg)
	if err != nil {
		return nil, err
	}
	x, err = p.Start(ctx)
	if err != nil {
		return nil, err
	}
	// The one-shot API's contract: preparation time is part of the query's
	// sampling step.
	x.times.Sampling += p.buildTime
	return x, nil
}

// startTopology prepares an execution under a topology-only ablation
// sampler (Fig. 5a), which draws its sample during the build itself and so
// cannot be compiled into a reusable plan.
func (e *Engine) startTopology(ctx context.Context, q *query.Aggregate, cfg queryConfig) (*Execution, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.Func.HasGuarantee() && q.GroupBy != "" {
		return nil, fmt.Errorf("core: GROUP-BY with %v is unsupported", q.Func)
	}
	o := cfg.opts
	if o.Shards > 1 {
		return nil, fmt.Errorf("core: %w (got %v)", ErrShardedSampler, o.Sampler)
	}
	v := e.src.snapshot()
	if cfg.minEpoch > v.epoch {
		var err error
		if v, err = e.src.waitEpoch(ctx, cfg.minEpoch); err != nil {
			return nil, err
		}
	}
	x := &Execution{e: e, q: q, v: v, opts: o, onRound: cfg.onRound, degrade: cfg.degrade, rng: stats.NewRand(o.Seed)}

	var err error
	if x.attr, err = resolveAttr(v.g, q.Attr); err != nil {
		return nil, err
	}
	if x.group, err = resolveAttr(v.g, q.GroupBy); err != nil {
		return nil, err
	}
	for _, f := range q.Filters {
		a, err := resolveAttr(v.g, f.Attr)
		if err != nil {
			return nil, err
		}
		x.filters = append(x.filters, resolvedFilter{attr: a, low: f.Low, high: f.High})
	}

	paths, err := q.Q.Decompose()
	if err != nil {
		return nil, err
	}
	if len(paths) != 1 {
		return nil, fmt.Errorf("core: %v sampler supports simple queries only", o.Sampler)
	}
	begin := time.Now()
	sp, draws, err := e.buildTopologySpace(ctx, o, v, paths[0], x.rng, x.initialSize(200))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: %w during preparation: %w", ErrInterrupted, cerr)
		}
		return nil, err
	}
	x.sp = sp
	x.drawIdx = draws
	x.times.Sampling += time.Since(begin)
	return x, nil
}

// Query runs the full pipeline: Start plus refinement to the configured
// error bound, honouring ctx between rounds and inside the walk and
// validation hot loops. On cancellation it returns the partial Result
// collected so far (Converged=false) together with an error wrapping both
// ErrInterrupted and ctx.Err().
func (e *Engine) Query(ctx context.Context, q *query.Aggregate, opts ...QueryOption) (*Result, error) {
	x, err := e.Start(ctx, q, opts...)
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	return x.Refine(ctx, 0)
}

// Rounds returns a snapshot of the refinement rounds observed so far — the
// pull-style counterpart of the OnRound streaming option.
func (x *Execution) Rounds() []Round {
	return append([]Round(nil), x.rounds...)
}

// emitRound records a refinement round and streams it to the OnRound
// callback, if any.
func (x *Execution) emitRound(r Round) {
	x.rounds = append(x.rounds, r)
	if x.onRound != nil {
		x.onRound(r)
	}
}

// traceRound records one guarantee-loop round into the request trace: the
// fresh draws and validation work of this round, the estimate and its ε,
// and the achieved bound ε̂ = ε/(|V̂|−ε) whose shrink toward eb is the
// Theorem 2 convergence signal.
func (x *Execution) traceRound(ctx context.Context, began time.Time, vhat, eps float64) {
	t := obs.TraceFrom(ctx)
	if t == nil {
		return
	}
	n := len(x.drawIdx)
	validated := t.Counter("validation_calls")
	hits := t.Counter("verdict_cache_hits")
	t.Round(obs.RoundTelemetry{
		Round:      len(x.rounds),
		SampleSize: n,
		Draws:      n - x.traceSampleAt,
		Validated:  int(validated - x.traceValidated),
		CacheHits:  int(hits - x.traceHits),
		Estimate:   obs.Float(vhat),
		MoE:        obs.Float(eps),
		AchievedEB: obs.Float(achievedEB(vhat, eps)),
		ElapsedMS:  float64(time.Since(began)) / float64(time.Millisecond),
	})
	x.traceSampleAt, x.traceValidated, x.traceHits = n, validated, hits
}

// finishTelemetry exports one completed Refine to the engine metrics and
// stamps the request trace with the result-level attributes (outcome,
// convergence, the final ε̂, per-shard draw attribution). Step times export
// as deltas against what this execution already reported.
func (x *Execution) finishTelemetry(ctx context.Context, converged bool, vhat, moe float64) {
	outcome := "unconverged"
	switch {
	case ctx.Err() != nil:
		outcome = "interrupted"
	case x.degraded:
		outcome = "degraded"
	case converged:
		outcome = "converged"
	}
	metQueries.With(outcome).Inc()
	metRounds.Observe(float64(len(x.rounds)))
	metStepSeconds.With("sampling").Add((x.times.Sampling - x.reportedTimes.Sampling).Seconds())
	metStepSeconds.With("estimation").Add((x.times.Estimation - x.reportedTimes.Estimation).Seconds())
	metStepSeconds.With("guarantee").Add((x.times.Guarantee - x.reportedTimes.Guarantee).Seconds())
	x.reportedTimes = x.times

	t := obs.TraceFrom(ctx)
	if t == nil {
		return
	}
	t.SetAttr("outcome", outcome)
	t.SetAttr("converged", converged)
	t.SetAttr("degraded", x.degraded)
	t.SetAttr("rounds", len(x.rounds))
	t.SetAttr("sample_size", len(x.drawIdx))
	t.SetAttr("candidates", x.sp.len())
	t.SetAttr("epoch", x.v.epoch)
	t.SetAttr("target_eb", x.targetEB)
	t.SetAttr("estimate", vhat)
	t.SetAttr("moe", moe)
	t.SetAttr("achieved_eb", achievedEB(vhat, moe))
	if x.sh != nil {
		draws := make(map[string]int, len(x.sh.spaces))
		for pos, spc := range x.sh.spaces {
			draws[strconv.Itoa(spc.Shard)] = x.sh.drawn[pos]
		}
		t.SetAttr("shard_draws", draws)
	}
}

// initialSize is the paper's |S| = t·(λ·|A|)^m with a practical floor.
func (x *Execution) initialSize(candidates int) int {
	o := x.opts
	n := float64(o.T) * math.Pow(o.Lambda*float64(candidates), o.M)
	size := int(math.Ceil(n))
	if size < o.MinSample {
		size = o.MinSample
	}
	return size
}

// firstSample draws the initial round. Under sharded execution the size is
// additionally floored at the stratum count: an unobserved stratum
// contributes zero to the merged estimate AND zero to its variance, so a
// first round smaller than the stratum count could converge on a biased
// underestimate; covering every stratum from round one (the allocator's
// per-stratum floors then hold for all later rounds) removes that mode.
func (x *Execution) firstSample() {
	size := x.initialSize(x.sp.len())
	if x.sh != nil && size < len(x.sh.spaces) {
		size = len(x.sh.spaces)
	}
	x.sampleMore(size)
}

// sizingGap remembers, within one refinement round, the estimate furthest
// from its Theorem 2 target — the largest ε/target ratio among the round's
// unsatisfied specs or groups — which drives the round's Eq. 12 sizing.
type sizingGap struct {
	ratio, v, eps, eb float64
}

// note offers one unsatisfied estimate; a zero estimate has no target and
// gives no ratio to size with.
func (g *sizingGap) note(v, eps, eb float64) {
	if t := estimate.Target(v, eb); t > 0 {
		if r := eps / t; r > g.ratio {
			*g = sizingGap{ratio: r, v: v, eps: eps, eb: eb}
		}
	}
}

// nextSampleSize is Eq. 12 for the noted estimate (0 when none was noted).
func (g sizingGap) nextSampleSize(cur int) int {
	return estimate.NextSampleSize(cur, g.eps, g.v, g.eb)
}

// sampleMore extends the draw list by k, honouring the MaxDraws budget. It
// reports whether any draws were added. Sharded executions allocate the k
// draws across strata (Neyman once variance signals exist) and draw each
// stratum from its own deterministic stream.
func (x *Execution) sampleMore(k int) bool {
	if budget := x.opts.MaxDraws - len(x.drawIdx); k > budget {
		k = budget
	}
	if k <= 0 {
		return false
	}
	begin := time.Now()
	var fresh []int
	if x.sh != nil {
		x.scr.draws = x.sh.drawInto(x.scr.draws[:0], k)
		fresh = x.scr.draws
	} else {
		x.scr.draws = x.sp.drawInto(x.scr.draws[:0], x.rng, k)
		fresh = x.scr.draws
	}
	x.drawIdx = append(x.drawIdx, fresh...)
	x.scr.shardCounts = x.e.countDraws(x.sp.answers, fresh, x.scr.shardCounts)
	x.drawCost = time.Since(begin)
	x.times.Sampling += x.drawCost
	return true
}

// interrupted packages the partial state of a cancelled refinement: the
// best estimate so far with Converged=false, plus an error matching both
// ErrInterrupted and the ctx cause. When this Refine call completed no
// round of its own, the estimate falls back to the last recorded round
// (an earlier Refine on the same Execution may have produced one); only a
// truly round-less execution reports NaN. The cancelled ctx flows into
// the result bookkeeping on purpose: draws of candidates whose validation
// never ran count as incorrect instead of blocking the cancel on a fresh
// validation pass.
func (x *Execution) interrupted(ctx context.Context, vhat, moe float64, estimated bool, cause error) (*Result, error) {
	if !estimated {
		if n := len(x.rounds); n > 0 {
			vhat, moe = x.rounds[n-1].Estimate, x.rounds[n-1].MoE
		} else {
			vhat, moe = math.NaN(), math.NaN()
		}
	}
	return x.result(ctx, vhat, moe, false, nil),
		fmt.Errorf("core: %w after %d draws: %w", ErrInterrupted, len(x.drawIdx), cause)
}

// Refine grows the sample until the Theorem 2 condition holds for the given
// error bound (eb ≤ 0 means the execution's configured bound), reusing all
// previously collected draws — interactive tightening of eb keeps the
// sample. ctx is checked between refinement rounds and inside the
// validation hot loop; a cancelled Refine returns the partial Result with
// Converged=false and an error wrapping ErrInterrupted.
func (x *Execution) Refine(ctx context.Context, eb float64) (res *Result, err error) {
	defer x.catchPanics(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	release := x.holdScratch()
	defer release()
	x.bindTerms(termSpec{fn: x.q.Func, attr: x.attr})
	if eb <= 0 {
		eb = x.opts.ErrorBound
	}
	x.targetEB = eb
	if !x.q.Func.HasGuarantee() {
		return x.runExtreme(ctx)
	}
	if x.group != kg.InvalidAttr {
		return x.runGrouped(ctx, eb)
	}
	o := x.opts
	if len(x.drawIdx) == 0 {
		x.firstSample()
	}

	var vhat, moe float64
	converged := false
	estimated := false
	for round := 0; round < o.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return x.interrupted(ctx, vhat, moe, estimated, err)
		}
		roundBegin := time.Now()
		if !x.advance(ctx) {
			// Validation was cut short: the round's draws stay unfolded, and
			// a later Refine picks them up where this one stopped.
			return x.interrupted(ctx, vhat, moe, estimated, ctx.Err())
		}
		begin := time.Now()
		mom := x.sampleMoments(0)
		correct := x.tab.hits(0, 0)
		v, err := x.estimateOf(0, mom)
		x.times.Estimation += time.Since(begin)
		if err != nil {
			if err == estimate.ErrNoCorrect {
				// Unlucky sample: enlarge and retry.
				if !x.sampleMore(len(x.drawIdx)) {
					break
				}
				continue
			}
			return nil, err
		}
		// With too few correct draws the sample has not seen the heavy tail
		// of the HT weights and the CLT margin under-covers; a CI computed
		// now would terminate over-optimistically. Grow first.
		if correct < o.MinCorrect {
			if !x.sampleMore(len(x.drawIdx)) {
				// Budget exhausted: fall through and report what we have,
				// without claiming convergence.
				vhat, moe = v, math.NaN()
				estimated = true
				break
			}
			continue
		}
		begin = time.Now()
		eps, err := x.marginOf(0, mom)
		// Close the timing window before the OnRound callback fires: its
		// latency (e.g. a slow streaming client) is not guarantee time.
		x.times.Guarantee += time.Since(begin)
		if err != nil {
			if !x.sampleMore(len(x.drawIdx)) {
				break
			}
			continue
		}
		vhat, moe = v, eps
		estimated = true
		x.emitRound(Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)})
		x.traceRound(ctx, roundBegin, v, eps)
		if estimate.Satisfied(v, eps, eb) {
			converged = true
			break
		}
		begin = time.Now()
		delta := o.FixedDelta
		if delta <= 0 {
			delta = estimate.NextSampleSize(len(x.drawIdx), eps, v, eb)
		}
		if max := 5 * len(x.drawIdx); delta > max {
			delta = max // keep one round from ballooning on a noisy early ε
		}
		x.times.Guarantee += time.Since(begin)
		// Deadline-aware degradation: when another round (predicted from this
		// one's cost and the step just sized) would not fit before the context
		// deadline, stop here and report the honest interval already held
		// rather than be cancelled mid-validation. The estimate above is
		// complete, so the answer is exactly what an earlier termination would
		// have returned.
		if x.degrade.shouldStop(ctx, x.nextRoundCost(roundBegin, delta)) {
			x.degraded = true
			break
		}
		if !x.sampleMore(delta) {
			break // draw budget exhausted: report the best estimate so far
		}
	}
	if !estimated {
		return nil, fmt.Errorf("core: %w: no estimable sample within %d rounds: %w",
			ErrNotConverged, o.MaxRounds, estimate.ErrNoCorrect)
	}
	return x.result(ctx, vhat, moe, converged, nil), nil
}

// extremeRoundSize is the fixed round of the MAX/MIN paths: 5% of the
// candidates, at least 20 draws, and at least one per stratum so that every
// stratum is observed each round.
func (x *Execution) extremeRoundSize() int {
	per := max(x.sp.len()/20, 20)
	if x.sh != nil {
		per = max(per, len(x.sh.spaces))
	}
	return per
}

// runExtreme supports MAX/MIN without a guarantee (§VII): fixed-size rounds
// over the sampling distribution, returning the running extreme.
func (x *Execution) runExtreme(ctx context.Context) (*Result, error) {
	o := x.opts
	per := x.extremeRoundSize()
	var best float64
	found := false
	for round := 0; round < o.ExtremeRounds; round++ {
		if err := ctx.Err(); err != nil {
			return x.interrupted(ctx, best, 0, found, err)
		}
		roundBegin := time.Now()
		if !x.sampleMore(per) && round > 0 {
			break
		}
		if !x.advance(ctx) {
			return x.interrupted(ctx, best, 0, found, ctx.Err())
		}
		begin := time.Now()
		v, err := x.estimateOf(0, x.sampleMoments(0))
		x.times.Estimation += time.Since(begin)
		if err != nil {
			continue
		}
		best = v
		found = true
		x.emitRound(Round{Estimate: v, SampleSize: len(x.drawIdx)})
		x.traceRound(ctx, roundBegin, v, math.NaN())
	}
	if !found {
		return nil, estimate.ErrNoCorrect
	}
	return x.result(ctx, best, 0, false, nil), nil
}

// minGroupDraws is how many in-group correct draws a GROUP-BY group needs
// before its own Theorem 2 condition counts toward termination.
const minGroupDraws = 8

// runGrouped answers GROUP-BY queries: each group's estimator runs over the
// full sample with group membership folded into the correctness indicator
// (a draw outside the group contributes zero), which keeps the HT estimator
// unbiased per group. Every sufficiently observed group must individually
// satisfy Theorem 2, which is why GROUP-BY costs roughly a group-count
// multiple of a plain query (Table X).
func (x *Execution) runGrouped(ctx context.Context, eb float64) (*Result, error) {
	o := x.opts
	if len(x.drawIdx) == 0 {
		x.firstSample()
	}
	maxRounds := 3 * o.MaxRounds
	var groups map[string]GroupResult
	var vhat, moe float64
	estimated := false
	lastEmit := -1 // sample size the last emitted round covered
	converged := false
	cut := func(cause error) (*Result, error) {
		res, rerr := x.interrupted(ctx, vhat, moe, estimated, cause)
		res.Groups = groups
		return res, rerr
	}
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return cut(err)
		}
		roundBegin := time.Now()
		if !x.advance(ctx) {
			// Validation was cut short; the round's draws stay unfolded, so
			// report the previous round's groups.
			return cut(ctx.Err())
		}
		begin := time.Now()
		// The overall (ungrouped) estimate of this round, streamed to
		// OnRound so grouped queries report live progress too.
		mom := x.sampleMoments(0)
		if v, err := x.estimateOf(0, mom); err == nil {
			gbegin := time.Now()
			eps, err := x.marginOf(0, mom)
			x.times.Guarantee += time.Since(gbegin)
			if err != nil {
				eps = math.NaN()
			}
			vhat, moe = v, eps
			estimated = true
			lastEmit = len(x.drawIdx)
			x.emitRound(Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)})
			x.traceRound(ctx, roundBegin, v, eps)
		}
		var worst sizingGap
		var allOK bool
		groups, allOK = x.groupRound(0, eb, &worst)
		x.times.Estimation += time.Since(begin)
		if allOK && len(groups) > 0 {
			converged = true
			break
		}
		delta := worst.nextSampleSize(len(x.drawIdx))
		if delta < len(x.drawIdx)/2 {
			delta = len(x.drawIdx) / 2
		}
		if max := 5 * len(x.drawIdx); delta > max {
			delta = max
		}
		if x.degrade.shouldStop(ctx, x.nextRoundCost(roundBegin, delta)) {
			x.degraded = true
			break
		}
		if !x.sampleMore(delta) {
			break // draw budget exhausted
		}
	}
	// The overall (ungrouped) estimate accompanies the groups; recompute it
	// only when no round produced one or draws arrived after the last round.
	if !estimated || lastEmit != len(x.drawIdx) {
		finalBegin := time.Now()
		if !x.advance(ctx) {
			return cut(ctx.Err())
		}
		mom := x.sampleMoments(0)
		v, err := x.estimateOf(0, mom)
		if err != nil {
			return nil, err
		}
		eps, err := x.marginOf(0, mom)
		if err != nil {
			eps = math.NaN()
		}
		vhat, moe = v, eps
		x.emitRound(Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)})
		x.traceRound(ctx, finalBegin, v, eps)
	}
	return x.result(ctx, vhat, moe, converged, groups), nil
}

// groupRound reads out spec k's per-group estimators for the current round:
// every group with a draw correct for the spec gets its estimate and margin
// over the full sample, in which the draws outside the group are zeros. It
// reports whether every sufficiently observed group (minGroupDraws)
// satisfies eb; the unsatisfied ones are offered to worst, the round's
// growth signal.
func (x *Execution) groupRound(k int, eb float64, worst *sizingGap) (map[string]GroupResult, bool) {
	t := x.tab
	groups := map[string]GroupResult{}
	allOK := t.hits(0, k) > 0
	for g := 1; g < len(t.labels); g++ {
		inGroup := t.hits(g, k)
		if inGroup == 0 {
			continue
		}
		mom := t.moments(g, k)
		v, err := x.estimateOf(k, mom)
		if err != nil {
			continue
		}
		begin := time.Now()
		eps, err := x.marginOf(k, mom)
		x.times.Guarantee += time.Since(begin)
		if err != nil {
			continue
		}
		groups[t.labels[g]] = GroupResult{Estimate: v, MoE: eps, Draws: inGroup}
		if inGroup >= minGroupDraws && !estimate.Satisfied(v, eps, eb) {
			allOK = false
			worst.note(v, eps, eb)
		}
	}
	return groups, allOK
}

// result assembles the Result. Draws that arrived after the last evaluated
// round (a loop that ran out of rounds right after sampling) are settled
// first, so Correct and Distinct cover the whole SampleSize; under a
// cancelled ctx they are not, and count as sampleCounts says.
func (x *Execution) result(ctx context.Context, vhat, moe float64, converged bool, groups map[string]GroupResult) *Result {
	if x.tab.folded < len(x.drawIdx) && ctx.Err() == nil {
		x.advance(ctx)
	}
	x.finishTelemetry(ctx, converged, vhat, moe)
	correct, distinct := x.sampleCounts(0)
	shards := 0
	if x.sh != nil {
		shards = len(x.sh.spaces)
	}
	return &Result{
		Query:      x.q,
		Estimate:   vhat,
		MoE:        moe,
		Confidence: x.opts.Confidence,
		Converged:  converged,
		Degraded:   x.degraded,
		TargetEB:   x.targetEB,
		Rounds:     append([]Round(nil), x.rounds...),
		SampleSize: len(x.drawIdx),
		Distinct:   distinct,
		Correct:    correct,
		Candidates: x.sp.len(),
		Shards:     shards,
		Epoch:      x.v.epoch,
		Times:      x.times,
		Groups:     groups,
	}
}

// Execute runs the full pipeline with the engine's configured error bound.
//
// Deprecated: use Query, which adds context cancellation and per-query
// options. Execute remains as a one-release compatibility shim.
func (e *Engine) Execute(q *query.Aggregate) (*Result, error) {
	return e.Query(context.Background(), q)
}

// Run refines the sample until the Theorem 2 condition holds for eb.
//
// Deprecated: use Refine, which adds context cancellation. Run remains as
// a one-release compatibility shim.
func (x *Execution) Run(eb float64) (*Result, error) {
	return x.Refine(context.Background(), eb)
}

// CandidateAnswers exposes the sampling space (candidate answers sorted by
// descending π′) for diagnostics and the CLIs.
func (x *Execution) CandidateAnswers() []kg.NodeID {
	idx := make([]int, len(x.sp.answers))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x.sp.probs[idx[a]] > x.sp.probs[idx[b]] })
	out := make([]kg.NodeID, len(idx))
	for k, i := range idx {
		out[k] = x.sp.answers[i]
	}
	return out
}
