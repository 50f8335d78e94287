package httpapi

import (
	"context"
	"errors"
	"net/http"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/estimate"
	"kgaq/internal/federate"
)

// This file is the HTTP face of federated execution (DESIGN.md "Federation:
// remote strata"). Every server is member-capable: POST /v1/federate/sample
// runs one stratum round against the local engine. A server additionally
// becomes a coordinator via ConfigureFederation, after which /v1/query
// scatters across the configured members instead of running locally.

// ConfigureFederation turns this server into a federation coordinator:
// single-aggregate /v1/query requests scatter across the coordinator's
// members and merge through the stratified combiner (the fields that do not
// decompose — aggregates, min_epoch, a non-semantic sampler — answer 400),
// /v1/healthz gains the federation block, and /debug/federation serves
// member health. Call before serving.
func (s *Server) ConfigureFederation(c *federate.Coordinator) { s.fed = c }

// serveFederateSample is the member half of a federated query: run a pilot
// and/or the allocated draws against the local engine's own graph and
// return the moments of the draws' member-local HT terms
// (POST /v1/federate/sample, see federate.SampleRequest/SampleResponse).
func (s *Server) serveFederateSample(w http.ResponseWriter, wk *work, req *federate.SampleRequest) {
	begin := time.Now()
	ms, err := s.eng.FederateSample(wk.ctx, wk.agg, req.Draws, req.Pilot, wk.opts...)
	if err != nil {
		// A query this member's graph simply cannot resolve (anchor entity,
		// type, predicate or attribute absent) is an honest empty stratum,
		// not a failure: other members may well hold the answers.
		if errors.Is(err, core.ErrUnknownEntity) || errors.Is(err, core.ErrUnknownType) ||
			errors.Is(err, core.ErrUnknownPredicate) || errors.Is(err, core.ErrUnknownAttribute) {
			_, epoch := s.eng.Snapshot()
			writeJSON(w, http.StatusOK, federate.SampleResponse{
				Candidates: 0,
				Epoch:      epoch,
				ElapsedMS:  elapsedMS(time.Since(begin)),
			})
			return
		}
		writeError(w, errorStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, federate.SampleResponse{
		Moments:    estimate.MomentsOf(wk.agg.Func, ms.Obs),
		Candidates: ms.Candidates,
		Epoch:      ms.Epoch,
		ElapsedMS:  elapsedMS(time.Since(begin)),
	})
}

// federationHealth is the healthz block of a coordinator: the passive
// member-health picture (no probing on the healthz path — load balancers
// hit it hard).
type federationHealth struct {
	Members []federate.MemberStatus `json:"members"`
	Queries uint64                  `json:"queries"`
	Partial uint64                  `json:"partial,omitempty"`
	// Unhealthy counts configured members that currently look down from
	// query traffic.
	Unhealthy int `json:"unhealthy,omitempty"`
}

func (s *Server) federationHealth() *federationHealth {
	if s.fed == nil {
		return nil
	}
	st := s.fed.Stats()
	fh := &federationHealth{Members: st.Members, Queries: st.Queries, Partial: st.Partial}
	for _, m := range st.Members {
		if m.Contacted && !m.Healthy {
			fh.Unhealthy++
		}
	}
	return fh
}

// debugFederation is the /debug/federation body: passive stats plus an
// active probe of every member's healthz.
type debugFederation struct {
	Stats federate.Stats         `json:"stats"`
	Probe []federate.ProbeResult `json:"probe"`
}

func (s *Server) handleDebugFederation(w http.ResponseWriter, r *http.Request) {
	if s.fed == nil {
		writeError(w, http.StatusNotFound, "federation is not configured (start with -federate-members)")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	writeJSON(w, http.StatusOK, debugFederation{
		Stats: s.fed.Stats(),
		Probe: s.fed.Probe(ctx),
	})
}
