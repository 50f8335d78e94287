package core

import "kgaq/internal/obs"

// Engine-tier metrics. Registered once into the process registry; the
// hot-path updates are single atomic adds next to the counters the engine
// already keeps (cache stats, spaceBuild), so a scrape and /debug/cache
// always tell the same story.
var (
	metQueries = obs.Default().CounterVec("kgaq_core_queries_total",
		"Completed engine executions by outcome (exact, converged, unconverged, degraded, interrupted).",
		"outcome")
	metRounds = obs.Default().Histogram("kgaq_core_rounds_per_query",
		"Guarantee-loop rounds taken per execution.", obs.RoundBuckets)
	metDraws = obs.Default().Counter("kgaq_core_draws_total",
		"Semantic-aware sample draws taken across all executions.")
	metValidationCalls = obs.Default().Counter("kgaq_core_validation_calls_total",
		"Candidate answers greedily validated against the similarity oracle (verdict-cache misses).")
	metVerdictHits = obs.Default().Counter("kgaq_core_verdict_cache_hits_total",
		"Candidate validations answered from a shared verdict cache: a plan entry's per-candidate verdicts or a stage's leg table.")
	metSpaceHits = obs.Default().Counter("kgaq_core_space_cache_hits_total",
		"Answer-space cache hits (assembled answer spaces and converged stages).")
	metSpaceMisses = obs.Default().Counter("kgaq_core_space_cache_misses_total",
		"Answer-space cache misses (space assembled, or stage walked to convergence).")
	metSpaceInvalidated = obs.Default().Counter("kgaq_core_space_cache_invalidated_total",
		"Answer-space cache entries evicted by mutation-driven invalidation.")
	metStageBuilds = obs.Default().Counter("kgaq_core_stage_builds_total",
		"Random-walk stages converged from scratch (cache misses plus uncached builds).")
	metPlanRebuilds = obs.Default().Counter("kgaq_core_plan_rebuilds_total",
		"Prepared plans recompiled because their pinned epoch went stale.")
	metStepSeconds = obs.Default().CounterVec("kgaq_core_step_seconds_total",
		"Engine execution time attributed per step (sampling, estimation, guarantee).",
		"step")
)
