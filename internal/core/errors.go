package core

import (
	"errors"
	"math"
)

// Sentinel errors returned (possibly wrapped) by query resolution and
// execution. Match with errors.Is; the wrapping message carries the
// offending name and query context.
var (
	// ErrUnknownEntity reports a specific entity name absent from the graph
	// (or present but failing the Definition 5 type condition).
	ErrUnknownEntity = errors.New("unknown entity")
	// ErrUnknownType reports a query type name absent from the graph.
	ErrUnknownType = errors.New("unknown type")
	// ErrUnknownPredicate reports a query predicate absent from the graph
	// (the embedding has no vector for it).
	ErrUnknownPredicate = errors.New("unknown predicate")
	// ErrUnknownAttribute reports an aggregated, filtered or grouped
	// attribute absent from the graph.
	ErrUnknownAttribute = errors.New("unknown attribute")
	// ErrNotConverged reports that no estimable sample was obtained within
	// the round budget. A run that produces an estimate but exhausts its
	// draw budget does NOT error; it returns a Result with Converged=false.
	ErrNotConverged = errors.New("did not converge")
	// ErrInterrupted reports that the context was cancelled or its deadline
	// expired mid-query. When refinement had already produced an estimate,
	// the error accompanies a partial Result with Converged=false.
	ErrInterrupted = errors.New("query interrupted")
	// ErrEpochNotReached reports a WithMinEpoch requirement the engine's
	// graph source cannot satisfy — always, for a static engine asked for a
	// positive epoch; never for a live engine, which waits instead (a
	// cancelled wait reports ErrInterrupted).
	ErrEpochNotReached = errors.New("graph epoch not reached")
	// ErrPlanSampler reports Engine.Prepare with a topology-only ablation
	// sampler: those samplers draw during the build itself, so a plan would
	// have nothing reusable to compile.
	ErrPlanSampler = errors.New("prepared plans require the semantic sampler")
	// ErrPlanOption reports a Prepared.Start/Query/QueryMulti override of
	// an option that is compiled into the plan (sampler, hop bound, τ).
	// Prepare a new plan with those options instead.
	ErrPlanOption = errors.New("option is compiled into the prepared plan")
	// ErrBadAggSpec reports an invalid multi-aggregate specification: an
	// empty spec list, a non-COUNT aggregate without an attribute, or a
	// MAX/MIN aggregate combined with GROUP-BY.
	ErrBadAggSpec = errors.New("invalid aggregate spec")
	// ErrFederatedQuery reports a query shape federated execution cannot
	// scatter: MAX/MIN (no guarantee to merge) or GROUP-BY (group strata do
	// not decompose into remote member strata). Rejected by both the member
	// sampling API (Engine.FederateSample) and the coordinator.
	ErrFederatedQuery = errors.New("query is not federatable")
)

// IsPartial reports whether an interrupted query still yielded a usable
// partial estimate — the single predicate the CLIs and the HTTP server
// share for "report the partial instead of failing".
func IsPartial(err error, res *Result) bool {
	return errors.Is(err, ErrInterrupted) && res != nil && !math.IsNaN(res.Estimate)
}
