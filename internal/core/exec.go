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
// An Execution carries its own RNG, sampling space and validation caches
// and must not be shared across goroutines; concurrency happens by running
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
	// oneShot marks an execution that dies with its first refinement call
	// (Query, QueryMulti, FederateSample): nothing reads its draw list
	// afterwards, so the list lives in the scratch (holdScratch).
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
	defer catchPanics(aggString(q), &err)
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

// observation materialises draw i: the correctness verdict combines the
// cached semantic validation with the §V-A filter condition
// c(u) = (L ≤ u.b ≤ U && s ≥ τ), and an answer missing the aggregated
// attribute cannot contribute to SUM/AVG/MAX/MIN. Under sharded execution
// the probability is conditional on the draw's stratum and the stratum's
// inclusion probability rides along, so the stratified combiner can merge
// per-shard samples from the flat observation list.
func (x *Execution) observation(ctx context.Context, i int) estimate.Observation {
	g := x.v.g
	u := x.sp.answers[i]
	// The Fig. 5b ablation (SkipValidation) trusts the sampler blindly:
	// every sampled answer is treated as correct.
	obs := estimate.Observation{Prob: x.sp.probs[i],
		Correct: x.opts.SkipValidation || x.sp.correctness(ctx, i)}
	if x.sh != nil {
		spc := x.sh.spaces[x.sh.posOf[i]]
		obs.Prob = x.sh.condProb(x.sp, i)
		obs.Stratum = spc.Shard
		obs.StratumWeight = spc.Weight
	}
	if obs.Correct {
		for _, f := range x.filters {
			v, ok := g.Attr(u, f.attr)
			if !ok || v < f.low || v > f.high {
				obs.Correct = false
				break
			}
		}
	}
	if x.attr != kg.InvalidAttr {
		v, ok := g.Attr(u, x.attr)
		if !ok {
			if x.q.Func != query.Count {
				obs.Correct = false
			}
		} else {
			obs.Value = v
		}
	}
	return obs
}

// prevalidateDraws batch-validates every fresh distinct answer in the draw
// list — per stratum and in parallel when sharded, in one shared greedy
// search otherwise — so the per-draw observation path hits the verdict
// cache.
func (x *Execution) prevalidateDraws(ctx context.Context) {
	fireValidatePoint()
	if x.opts.SkipValidation {
		return
	}
	if x.sh != nil {
		x.sh.prevalidate(ctx, x.e, x.sp, x.drawIdx, x.scr)
		return
	}
	x.sp.prevalidate(ctx, x.drawIdx, x.scr)
}

func (x *Execution) observations(ctx context.Context) []estimate.Observation {
	x.prevalidateDraws(ctx)
	out := x.scr.obs[:0]
	if cap(out) < len(x.drawIdx) {
		out = make([]estimate.Observation, 0, len(x.drawIdx))
	}
	for _, i := range x.drawIdx {
		out = append(out, x.observation(ctx, i))
	}
	x.scr.obs = out
	return out
}

// roundEval evaluates one observation list — a refinement round's full
// sample, or one GROUP-BY group's view of it — under one aggregate
// function. When sharded, the strata are regrouped once and shared by the
// point estimate and the margin of error.
type roundEval struct {
	x      *Execution
	fn     query.AggFunc
	obs    []estimate.Observation
	strata []estimate.Stratum // nil when unsharded
}

// eval builds the round evaluator for the execution's own aggregate.
// updateAlloc must be true exactly for the full-sample evaluation of a
// round: it refreshes the Neyman allocator's per-stratum variance signals,
// which per-group views (subsets with out-of-group draws zeroed, visited
// in map order) must never do — allocation stays a function of the whole
// sample and the run stays deterministic under its seed.
func (x *Execution) eval(obs []estimate.Observation, updateAlloc bool) *roundEval {
	return x.evalFn(x.q.Func, obs, updateAlloc)
}

// evalFn is eval for an explicit aggregate function — the multi-aggregate
// path evaluates several functions over projections of one shared sample.
func (x *Execution) evalFn(fn query.AggFunc, obs []estimate.Observation, updateAlloc bool) *roundEval {
	re := &roundEval{x: x, fn: fn, obs: obs}
	if x.sh != nil {
		re.strata = estimate.Regroup(obs)
		if updateAlloc {
			x.sh.updateSigmas(fn, re.strata)
		}
	}
	return re
}

// estimate computes the point estimate — stratified when sharded (the
// per-shard samples merge as Σ_h f̂(S_h) over conditional probabilities),
// plain Horvitz–Thompson otherwise.
func (re *roundEval) estimate() (float64, error) {
	x := re.x
	if re.strata != nil {
		return estimate.EstimateStratified(re.fn, re.strata, x.opts.Policy)
	}
	return estimate.Estimate(re.fn, re.obs, x.opts.Policy)
}

// moe computes ε: the closed-form stratified CLT margin over the round's
// strata — an unsharded sample is one stratum of weight 1, viewed from this
// frame without allocating. ε is a function of the observations alone: it
// consumes no randomness, so the draw stream stays a function of draw
// counts and pooled and unpooled execution, or a QueryMulti and sequential
// Query calls over the same plan, sample identically.
func (re *roundEval) moe() (float64, error) {
	o := re.x.opts
	strata := re.strata
	if strata == nil {
		one := [1]estimate.Stratum{{Weight: 1, Obs: re.obs}}
		strata = one[:]
	}
	return estimate.MoEStratified(re.fn, strata, o.Policy, o.guarantee())
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
	x.e.countDraws(x.sp.answers, fresh)
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
// the result bookkeeping on purpose: draws whose validation never ran
// count as incorrect instead of blocking the cancel on a fresh
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
		begin := time.Now()
		obs := x.observations(ctx)
		correct := 0
		for _, ob := range obs {
			if ob.Correct {
				correct++
			}
		}
		if err := ctx.Err(); err != nil {
			// Validation was cut short; the verdicts of this round are
			// incomplete, so do not fold them into the estimate.
			x.times.Estimation += time.Since(begin)
			return x.interrupted(ctx, vhat, moe, estimated, err)
		}
		re := x.eval(obs, true)
		v, err := re.estimate()
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
		eps, err := re.moe()
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

// runExtreme supports MAX/MIN without a guarantee (§VII): fixed-size rounds
// over the sampling distribution, returning the running extreme.
func (x *Execution) runExtreme(ctx context.Context) (*Result, error) {
	o := x.opts
	per := x.sp.len() / 20 // 5% of the candidates per round
	if per < 20 {
		per = 20
	}
	if x.sh != nil && per < len(x.sh.spaces) {
		per = len(x.sh.spaces) // observe every stratum each extreme round
	}
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
		begin := time.Now()
		v, err := x.eval(x.observations(ctx), true).estimate()
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
	const minGroupDraws = 8
	maxRounds := 3 * o.MaxRounds
	var groups map[string]GroupResult
	var vhat, moe float64
	estimated := false
	lastEmit := -1 // sample size the last emitted round covered
	converged := false
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			res, rerr := x.interrupted(ctx, vhat, moe, estimated, err)
			res.Groups = groups
			return res, rerr
		}
		roundBegin := time.Now()
		begin := time.Now()
		byGroup, inGroup, base := x.groupedObservations(ctx)
		if err := ctx.Err(); err != nil {
			// Validation was cut short; this round's verdicts are incomplete,
			// so report the previous round's groups, not estimates over them.
			x.times.Estimation += time.Since(begin)
			res, rerr := x.interrupted(ctx, vhat, moe, estimated, err)
			res.Groups = groups
			return res, rerr
		}
		// The overall (ungrouped) estimate of this round, streamed to
		// OnRound so grouped queries report live progress too.
		baseEval := x.eval(base, true)
		if v, err := baseEval.estimate(); err == nil {
			gbegin := time.Now()
			eps, err := baseEval.moe()
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
		groups = map[string]GroupResult{}
		allOK := len(byGroup) > 0
		var worst sizingGap
		for label, obs := range byGroup {
			groupEval := x.eval(obs, false)
			v, err := groupEval.estimate()
			if err != nil {
				continue
			}
			gbegin := time.Now()
			eps, err := groupEval.moe()
			x.times.Guarantee += time.Since(gbegin)
			if err != nil {
				continue
			}
			groups[label] = GroupResult{Estimate: v, MoE: eps, Draws: inGroup[label]}
			if inGroup[label] >= minGroupDraws && !estimate.Satisfied(v, eps, eb) {
				allOK = false
				worst.note(v, eps, eb)
			}
		}
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
		finalObs := x.observations(ctx)
		if err := ctx.Err(); err != nil {
			res, rerr := x.interrupted(ctx, vhat, moe, estimated, err)
			res.Groups = groups
			return res, rerr
		}
		finalEval := x.eval(finalObs, true)
		v, err := finalEval.estimate()
		if err != nil {
			return nil, err
		}
		eps, err := finalEval.moe()
		if err != nil {
			eps = math.NaN()
		}
		vhat, moe = v, eps
		x.emitRound(Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)})
		x.traceRound(ctx, finalBegin, v, eps)
	}
	return x.result(ctx, vhat, moe, converged, groups), nil
}

// groupedObservations builds, for every group label, a full-sample
// observation list in which draws outside the group are marked incorrect,
// plus the count of in-group draws per label and the shared base
// observation list itself (for the round's overall estimate).
func (x *Execution) groupedObservations(ctx context.Context) (map[string][]estimate.Observation, map[string]int, []estimate.Observation) {
	g := x.v.g
	x.prevalidateDraws(ctx)
	labels := x.scr.labels[:0]
	base := x.scr.base[:0]
	seen := map[string]bool{}
	inGroup := map[string]int{}
	for _, i := range x.drawIdx {
		ob := x.observation(ctx, i)
		base = append(base, ob)
		label := "n/a"
		if v, ok := g.Attr(x.sp.answers[i], x.group); ok {
			label = strconv.FormatFloat(v, 'g', -1, 64)
		}
		labels = append(labels, label)
		if ob.Correct {
			seen[label] = true
			inGroup[label]++
		}
	}
	x.scr.labels, x.scr.base = labels, base
	byGroup := map[string][]estimate.Observation{}
	for label := range seen {
		obs := make([]estimate.Observation, len(base))
		copy(obs, base)
		for k := range obs {
			if labels[k] != label {
				obs[k].Correct = false
			}
		}
		byGroup[label] = obs
	}
	return byGroup, inGroup, base
}

func (x *Execution) result(ctx context.Context, vhat, moe float64, converged bool, groups map[string]GroupResult) *Result {
	x.finishTelemetry(ctx, converged, vhat, moe)
	correct := 0
	distinct := 0
	x.scr.beginMarks(x.sp.len())
	for _, i := range x.drawIdx {
		if x.scr.mark(i) {
			distinct++
		}
		if x.observation(ctx, i).Correct {
			correct++
		}
	}
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
