package federate

import "kgaq/internal/obs"

// Federation metrics (see README "Metrics"). Per-member series are labelled
// by the configured member name, not the URL, so redeploys keep continuity.
var (
	metQueries = obs.Default().CounterVec("kgaq_federate_queries_total",
		"Federated queries by outcome (converged, degraded, unconverged, partial_failure, interrupted, error).",
		"outcome")
	metRounds = obs.Default().Histogram("kgaq_federate_rounds_per_query",
		"Scatter/gather refinement rounds per federated query.",
		obs.RoundBuckets)
	metRPCSeconds = obs.Default().HistogramVec("kgaq_federate_member_rpc_seconds",
		"Latency of one member sample RPC attempt (successful or not).",
		obs.DefBuckets, "member")
	metMemberErrors = obs.Default().CounterVec("kgaq_federate_member_errors_total",
		"Failed member sample RPC attempts by member and error kind.",
		"member", "kind")
	metHedges = obs.Default().CounterVec("kgaq_federate_hedges_total",
		"Hedged (re-issued) member sample RPCs by member.",
		"member")
	metStrata = obs.Default().Histogram("kgaq_federate_strata_survived",
		"Member strata contributing to the final merged estimate of a federated query.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16})
	metEpochRestarts = obs.Default().Counter("kgaq_federate_epoch_restarts_total",
		"Member samples discarded because the member's graph epoch moved mid-query.")
	metDraws = obs.Default().Counter("kgaq_federate_draws_total",
		"Remote draws gathered (as moments) from members across all federated queries.")
	metSizing = obs.Default().CounterVec("kgaq_federate_sizing_total",
		"Federated queries by how their first scatter was sized (pilot, or prior: the query's previous execution).",
		"source")
)
