package core

import (
	"context"
	"fmt"

	"kgaq/internal/estimate"
	"kgaq/internal/query"
)

// This file is the member half of federated execution (DESIGN.md
// "Federation: remote strata"): one engine instance samples its own graph
// as a single remote stratum; the HTTP layer reduces the draws to their
// moments and hands those to a coordinator, which merges the members
// through the stratified Horvitz–Thompson combiner in internal/federate.

// MemberSample is one round's worth of local draws, produced by
// FederateSample. Observation probabilities are member-local (conditional
// on this graph), so the per-draw HT terms v·1{correct}/p estimate this
// member's local aggregate total without any knowledge of the rest of the
// federation.
type MemberSample struct {
	// Obs are the draws from this member's sampling distribution, with
	// member-local inclusion probabilities and no stratum assignment (the
	// coordinator stamps stratum identity and weight).
	Obs []estimate.Observation
	// Candidates is the size of the member's candidate-answer space — the
	// coordinator's basis for the stratum weights it feeds the Neyman
	// allocator.
	Candidates int
	// Epoch is the graph epoch the draws observed. The coordinator tracks
	// it per member: a moved epoch means earlier rounds sampled a different
	// graph and the member's stream restarts.
	Epoch uint64
}

// FederateSample runs one federated sampling round against this engine's
// own graph: prepare (or reuse) the query's answer space, draw n
// observations, validate them, and return them with the member-side facts
// the coordinator needs. Each call is an independent round —
// draws across calls are i.i.d. from the same space (per-call seeds keep
// rounds distinct), so the coordinator can pool them freely.
//
// pilot floors the draw count at the execution's initial sample size (the
// paper's |S| sizing), so the first round carries a usable variance signal
// whatever tiny allocation the coordinator asked for.
//
// The query must carry a guaranteed aggregate (COUNT/SUM/AVG) without
// GROUP-BY: extremes and grouped queries do not decompose into remote
// strata.
func (e *Engine) FederateSample(ctx context.Context, q *query.Aggregate, n int, pilot bool, opts ...QueryOption) (ms *MemberSample, err error) {
	defer catchPanics(q, &err)
	if ctx == nil {
		ctx = context.Background()
	}
	if !q.Func.HasGuarantee() {
		return nil, fmt.Errorf("core: %w: %v carries no guarantee to federate", ErrFederatedQuery, q.Func)
	}
	if q.GroupBy != "" {
		return nil, fmt.Errorf("core: %w: GROUP-BY does not decompose into remote strata", ErrFederatedQuery)
	}
	// No Result reads a member round's step times, so the compile is a
	// plan lookup rather than Start's clocked step.
	cfg := e.queryConfig(opts)
	var x *Execution
	if cfg.opts.Sampler != SamplerSemantic {
		x, err = e.startTopology(ctx, q, cfg)
	} else {
		var p *Prepared
		if p, err = e.prepare(ctx, q, cfg); err == nil {
			x, err = p.Start(ctx)
		}
	}
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	release := x.holdScratch()
	defer release()
	x.bindTerms(termSpec{fn: q.Func, attr: x.attr})
	if pilot {
		if floor := x.initialSize(x.sp.len()); n < floor {
			n = floor
		}
	}
	if n < 2 {
		n = 2 // σ̂ needs two draws to exist
	}
	x.sampleMore(n)
	if !x.evaluate(ctx, x.drawIdx) {
		return nil, fmt.Errorf("core: %w during member sampling: %w", ErrInterrupted, ctx.Err())
	}
	// The round leaves the engine as observations, one per draw, read off
	// the term table; nothing is folded, the caller reduces them.
	t := x.tab
	out := make([]estimate.Observation, len(x.drawIdx))
	for k, i := range x.drawIdx {
		out[k] = estimate.Observation{Value: t.val[i], Prob: x.sp.probs[i], Correct: t.specCorrect(i, 0)}
	}
	return &MemberSample{
		Obs:        out,
		Candidates: x.sp.len(),
		Epoch:      x.v.epoch,
	}, nil
}
