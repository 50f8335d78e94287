// Package federate scatters one aggregate query across several kgaqd
// members — engine instances each owning a distinct graph or answer-space
// partition — and gathers their per-member sample moments into one
// guaranteed estimate (DESIGN.md "Federation: remote strata").
//
// The math is the stratified Horvitz–Thompson combiner over remote strata:
// one member = one stratum. A member
// samples its own graph with member-local inclusion probabilities, so its
// per-draw HT terms v·1{correct}/p estimate the member's local aggregate
// total without any global knowledge. Those terms enter every estimator
// only through their per-stratum moments (estimate.Moments), so that is all
// a member ships: the coordinator adds each round's moments into the
// member's running moments, merges stratum totals as Σ_h f̂(S_h)
// (estimate.EstimateMoments), bounds the merged margin with the closed-form
// stratified CLT (estimate.MoEMoments), and splits every refinement round's
// draws across members by Neyman allocation on the members' σ̂
// (estimate.AllocateDraws). The Theorem 2 (eb, α) guarantee therefore holds
// end to end, across machine boundaries.
//
// Failure is part of the contract. A member that stays unreachable past its
// retry budget either freezes (its already-gathered sample keeps
// contributing — the merge stays unbiased for the full federation, the
// margin just cannot shrink below that stratum's frozen variance) or, when
// it never delivered a draw, drops out entirely. Without degradation the
// query fails with the typed ErrPartialFederation; under
// core.WithDegradation the coordinator re-weights the surviving strata and
// returns an answer flagged Degraded — honestly scoped, never silently
// wrong.
package federate

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"kgaq/internal/estimate"
)

// Errors returned by the coordinator. Match with errors.Is.
var (
	// ErrPartialFederation reports that one or more members stayed
	// unreachable past the retry budget while degradation was not enabled
	// (or that no member could contribute at all). The wrapping message
	// names the dead members.
	ErrPartialFederation = errors.New("partial federation")
	// ErrNoMembers reports a coordinator configured with an empty member
	// set.
	ErrNoMembers = errors.New("no federation members configured")
)

// SamplePath is the member-side stratum-execution endpoint, served by
// internal/httpapi on every member.
const SamplePath = "/v1/federate/sample"

// SampleRequest is the body of POST /v1/federate/sample: run the query's
// pilot and/or the requested number of draws against the member's local
// space and return the sample's moments.
type SampleRequest struct {
	// Query is the textual aggregate query (the coordinator scatters the
	// query verbatim; each member resolves it against its own graph).
	Query string `json:"query"`
	// Draws is the number of draws the coordinator's allocator assigned to
	// this member for this round.
	Draws int `json:"draws"`
	// Pilot floors the draw count at the member's own initial sample size,
	// so the first round returns a usable variance signal.
	Pilot bool `json:"pilot,omitempty"`
	// Seed makes the member's draw stream deterministic; the coordinator
	// derives a distinct seed per (query, member, round).
	Seed int64 `json:"seed,omitempty"`
	// Tau optionally overrides the member's similarity threshold.
	Tau float64 `json:"tau,omitempty"`
	// TimeoutMS bounds the member-side work (the coordinator's per-member
	// round deadline, so an orphaned request cannot run on).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SampleResponse is the member's answer: the moments of this round's draws
// under the query's aggregate plus the member-side facts the coordinator's
// weights and epoch tracking need — a few hundred bytes whatever the round
// drew. A member that cannot resolve the query against its own graph
// (entity/type/predicate absent) answers with zero candidates and zero
// moments — an honest "nothing here", not an error.
type SampleResponse struct {
	// Moments reduces the round's draws to what the estimators read; the
	// coordinator validates them before use (estimate.Moments.Validate).
	Moments estimate.Moments `json:"moments"`
	// Candidates is the size of the member's candidate-answer space — the
	// coordinator's stratum-weight basis.
	Candidates int `json:"candidates"`
	// Epoch is the member-local graph epoch the draws observed.
	Epoch uint64 `json:"epoch"`
	// ElapsedMS is the member-side execution time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Member names one federation member.
type Member struct {
	// Name identifies the member in errors, metrics and health reports.
	Name string `json:"name"`
	// URL is the member's base URL (scheme://host:port, no path).
	URL string `json:"url"`
}

// Config configures a Coordinator. Zero values take the stated defaults.
type Config struct {
	// Members are the federation members; at least one is required.
	Members []Member
	// Client is the HTTP client used for member RPCs (default: a dedicated
	// client with sane connection pooling; per-RPC deadlines come from
	// MemberTimeout, not the client).
	Client *http.Client
	// MemberTimeout is the per-member, per-attempt deadline of one scatter
	// RPC (default 10s).
	MemberTimeout time.Duration
	// Retries is the number of additional attempts after a failed member
	// RPC before the member counts as dead for this query (default 2).
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// attempts (default 75ms; attempt k waits in [base·2ᵏ/2, base·2ᵏ)).
	RetryBackoff time.Duration
	// HedgeAfter re-issues a still-unanswered member RPC after this long
	// and takes whichever copy answers first — the classic tail-latency
	// hedge for the slowest member (default 400ms; negative disables).
	HedgeAfter time.Duration
}

// withDefaults normalises the configuration.
func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.MemberTimeout <= 0 {
		c.MemberTimeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 75 * time.Millisecond
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 400 * time.Millisecond
	}
	return c
}

// ParseMembers parses the -federate-members flag form: a comma-separated
// list of "name=url" pairs (the name may be omitted; member-N is assigned).
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m := Member{Name: fmt.Sprintf("member-%d", len(out))}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			m.Name, part = strings.TrimSpace(name), strings.TrimSpace(url)
		}
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			return nil, fmt.Errorf("federate: member %q: URL must start with http:// or https://", part)
		}
		m.URL = strings.TrimRight(part, "/")
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, ErrNoMembers
	}
	return out, nil
}

// ReadMembersFile parses a members config file: one member per line, either
// "name url" or a bare URL; blank lines and #-comments are skipped.
func ReadMembersFile(data string) ([]Member, error) {
	var out []Member
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := Member{Name: fmt.Sprintf("member-%d", len(out))}
		if fields := strings.Fields(line); len(fields) == 2 {
			m.Name, line = fields[0], fields[1]
		} else if len(fields) != 1 {
			return nil, fmt.Errorf("federate: members file: bad line %q (want \"url\" or \"name url\")", line)
		}
		if !strings.HasPrefix(line, "http://") && !strings.HasPrefix(line, "https://") {
			return nil, fmt.Errorf("federate: member %q: URL must start with http:// or https://", line)
		}
		m.URL = strings.TrimRight(line, "/")
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, ErrNoMembers
	}
	return out, nil
}
