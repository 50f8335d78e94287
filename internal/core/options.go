package core

import "kgaq/internal/estimate"

// queryConfig is the per-query execution configuration: the engine Options
// with any per-query overrides applied, plus call-scoped hooks that are not
// engine knobs (round streaming, batch parallelism).
type queryConfig struct {
	opts    Options
	onRound func(Round)
	// parallel bounds the QueryBatch worker pool (0 = GOMAXPROCS).
	parallel int
	// minEpoch is the oldest graph epoch this query may observe (0 = the
	// current snapshot, whatever its epoch).
	minEpoch uint64
	// epochPolicy governs how a prepared plan follows the live graph's
	// epochs (EpochPin by default).
	epochPolicy EpochPolicy
	// degrade configures deadline-aware graceful degradation of the
	// guarantee loop (disabled by default).
	degrade Degradation
	// noCensus keeps the refinement sampling to its end: the test hook that
	// lets the sampling tests run on populations smaller than their samples.
	noCensus bool
}

// QueryOption overrides one engine-level option for a single Query, Start
// or QueryBatch call. The engine's own Options are never mutated, so one
// Engine can serve concurrent queries with different settings.
type QueryOption func(*queryConfig)

// queryConfig merges the engine defaults with per-query overrides and
// re-applies the paper defaults to any knob an option reset to zero.
func (e *Engine) queryConfig(opts []QueryOption) queryConfig {
	return mergeConfig(queryConfig{opts: e.opts}, opts)
}

// mergeConfig applies per-call overrides on top of a base configuration —
// the engine defaults for one-shot queries, the Prepare-time configuration
// for executions of a prepared plan.
func mergeConfig(base queryConfig, opts []QueryOption) queryConfig {
	cfg := base
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	cfg.opts = cfg.opts.withDefaults()
	return cfg
}

// WithOptions replaces the whole option block for this query (zero fields
// fall back to the paper defaults, not to the engine's configuration).
func WithOptions(o Options) QueryOption {
	return func(c *queryConfig) { c.opts = o }
}

// WithErrorBound sets the relative error bound eb for this query.
func WithErrorBound(eb float64) QueryOption {
	return func(c *queryConfig) { c.opts.ErrorBound = eb }
}

// WithConfidence sets the confidence level 1-α for this query.
func WithConfidence(conf float64) QueryOption {
	return func(c *queryConfig) { c.opts.Confidence = conf }
}

// WithTau sets the semantic-similarity threshold τ for this query.
func WithTau(tau float64) QueryOption {
	return func(c *queryConfig) { c.opts.Tau = tau }
}

// WithSeed makes this query's sampling deterministic under the given seed,
// independent of the engine seed and of concurrent queries.
func WithSeed(seed int64) QueryOption {
	return func(c *queryConfig) { c.opts.Seed = seed }
}

// WithSampler selects the sampling algorithm for this query.
func WithSampler(s SamplerKind) QueryOption {
	return func(c *queryConfig) { c.opts.Sampler = s }
}

// WithMaxDraws caps the total sample size for this query.
func WithMaxDraws(n int) QueryOption {
	return func(c *queryConfig) { c.opts.MaxDraws = n }
}

// WithMaxRounds caps the refinement rounds for this query.
func WithMaxRounds(n int) QueryOption {
	return func(c *queryConfig) { c.opts.MaxRounds = n }
}

// WithHopBound sets the walk-scope bound n for this query.
func WithHopBound(n int) QueryOption {
	return func(c *queryConfig) { c.opts.N = n }
}

// WithLambda sets the desired sample ratio λ for this query.
func WithLambda(l float64) QueryOption {
	return func(c *queryConfig) { c.opts.Lambda = l }
}

// WithShards sets Options.Shards, which nothing reads: every execution
// draws one sample from one stratum.
//
// Deprecated: sharded execution was removed; the option is kept only so
// that existing callers still compile, and goes with ROADMAP item 2.
func WithShards(n int) QueryOption {
	return func(c *queryConfig) { c.opts.Shards = n }
}

// WithPolicy selects the estimator divisor policy for this query.
func WithPolicy(p estimate.DivisorPolicy) QueryOption {
	return func(c *queryConfig) { c.opts.Policy = p }
}

// WithSkipValidation toggles the S2 ablation (trust the sampler blindly)
// for this query.
func WithSkipValidation(skip bool) QueryOption {
	return func(c *queryConfig) { c.opts.SkipValidation = skip }
}

// OnRound registers a callback fired synchronously after every refinement
// round with the round's estimate, margin of error and sample size — the
// paper's Table IX trace streamed live. The callback runs on the query's
// goroutine; a slow callback slows the query.
func OnRound(fn func(Round)) QueryOption {
	return func(c *queryConfig) { c.onRound = fn }
}

// WithParallelism bounds the QueryBatch worker pool (default GOMAXPROCS).
// It has no effect on single-query calls.
func WithParallelism(n int) QueryOption {
	return func(c *queryConfig) { c.parallel = n }
}

// WithEpochPolicy sets how a prepared plan (Engine.Prepare) follows a live
// graph's epochs: EpochPin (default) freezes the plan on its Prepare-time
// snapshot, EpochRepin re-pins to the current snapshot at every Start,
// rebuilding the compiled space when the epoch moved. One-shot queries
// ignore it (they always pin their Start-time snapshot).
func WithEpochPolicy(p EpochPolicy) QueryOption {
	return func(c *queryConfig) { c.epochPolicy = p }
}

// WithDegradation enables deadline-aware graceful degradation for this
// query: when the context deadline is too close for another refinement
// round, the guarantee loop stops early and returns the honest interval it
// already holds (Result.Degraded=true, Result.AchievedEB() reporting the
// bound actually reached) instead of being cancelled mid-round. The
// configured MaxErrorBound is the honesty floor a degraded serving tier may
// relax effective bounds toward; zero disables degradation. It is an
// execution-level option: prepared plans accept it per execution.
func WithDegradation(d Degradation) QueryOption {
	return func(c *queryConfig) { c.degrade = d }
}

// ResolvedQuery is the externally visible result of merging an Options
// base with per-query overrides — the inputs an execution driver outside
// the engine (the federated coordinator) needs to honour the same
// QueryOption surface as Engine.Query.
type ResolvedQuery struct {
	// Opts is the merged option block with the paper defaults re-applied.
	Opts Options
	// OnRound is the round-streaming callback, if any.
	OnRound func(Round)
	// Degrade is the deadline-aware degradation configuration.
	Degrade Degradation
}

// ResolveQuery merges per-query options over a base the way Engine.Query
// does, so external drivers resolve WithErrorBound/WithSeed/WithDegradation
// etc. identically to the engine.
func ResolveQuery(base Options, opts ...QueryOption) ResolvedQuery {
	cfg := mergeConfig(queryConfig{opts: base}, opts)
	return ResolvedQuery{Opts: cfg.opts, OnRound: cfg.onRound, Degrade: cfg.degrade}
}

// WithMinEpoch pins the query to a graph view at or above the given epoch —
// the read half of read-your-writes: pass the epoch a mutation batch
// returned and the query is guaranteed to observe that batch. On a live
// engine the query waits (honouring its context) for the store to reach the
// epoch; on a static engine any positive epoch fails with
// ErrEpochNotReached. Zero is the default: query the current snapshot.
func WithMinEpoch(epoch uint64) QueryOption {
	return func(c *queryConfig) { c.minEpoch = epoch }
}
