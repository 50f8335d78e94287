package federate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/estimate"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// ErrUnresolved reports a federated query no member could resolve against
// its own graph: the anchor entity, type, predicate or attribute exists
// nowhere in the federation.
var ErrUnresolved = errors.New("query resolves on no federation member")

// Coordinator scatters aggregate queries across the configured members and
// gathers their sample moments into one guaranteed estimate. It is safe for
// concurrent use; member health is tracked across queries.
type Coordinator struct {
	cfg  Config
	base core.Options

	mu      sync.Mutex
	health  []memberHealth
	queries uint64
	partial uint64

	priors priorTable
}

// memberHealth is the cross-query, passively observed state of one member.
type memberHealth struct {
	healthy       bool // last RPC outcome (true until proven otherwise)
	everSeen      bool
	consecFails   int
	lastErr       string
	lastEpoch     uint64
	rpcs          uint64
	errs          uint64
	epochRestarts uint64
}

// New builds a coordinator over the given members. base is the option block
// federated queries resolve per-query options against — the coordinator's
// equivalent of an Engine's Options (error bound, confidence, seed, round
// and draw budgets; graph-shape knobs like N and τ travel to the members).
func New(cfg Config, base core.Options) (*Coordinator, error) {
	if len(cfg.Members) == 0 {
		return nil, ErrNoMembers
	}
	seen := make(map[string]bool, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("federate: member needs both name and URL (got %+v)", m)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("federate: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
	}
	c := &Coordinator{cfg: cfg.withDefaults(), base: base, health: make([]memberHealth, len(cfg.Members))}
	for i := range c.health {
		c.health[i].healthy = true
	}
	return c, nil
}

// Members returns the configured member set.
func (c *Coordinator) Members() []Member {
	out := make([]Member, len(c.cfg.Members))
	copy(out, c.cfg.Members)
	return out
}

// memberRun is the per-query accumulated state of one member stratum.
type memberRun struct {
	// sample is the running moments of every round the member answered at
	// its current epoch; a frozen member keeps what it gathered.
	sample     estimate.Moments
	candidates int
	epoch      uint64
	epochKnown bool
	empty      bool // member resolved the query to zero candidates
	frozen     bool // dead past retry budget; gathered sample stays in the merge
	dropped    bool // dead past retry budget with nothing gathered; stratum excluded
	err        error
}

// live reports whether the member can still take draw allocations.
func (r *memberRun) live() bool { return !r.empty && !r.frozen && !r.dropped }

// contributing reports whether the member's stratum enters the merge.
func (r *memberRun) contributing() bool { return !r.empty && !r.dropped && r.sample.N > 0 }

// Query executes one federated aggregate query: scatter a pilot, then
// refinement rounds of Neyman-allocated draws across members, merging the
// members' moments through the stratified Horvitz–Thompson combiner until the
// Theorem 2 condition holds for the requested (eb, α) — the same contract
// and option surface as Engine.Query, across machine boundaries. A query this
// coordinator has already answered whole skips the pilot: its first scatter
// is sized by Eq. 12 from the previous execution's final moments.
//
// Member death follows the package contract: without core.WithDegradation a
// member unreachable past the retry budget fails the query with
// ErrPartialFederation; with it, the query degrades honestly (dead member's
// gathered sample freezes in place, a member that never contributed drops
// and the surviving strata are re-weighted) and the result is flagged
// Degraded.
func (c *Coordinator) Query(ctx context.Context, q *query.Aggregate, opts ...core.QueryOption) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, rounds, err := c.run(ctx, q, opts...)
	c.mu.Lock()
	c.queries++
	if res != nil && res.Degraded {
		c.partial++
	}
	c.mu.Unlock()
	t := obs.TraceFrom(ctx)
	if rounds > 0 {
		metRounds.Observe(float64(rounds))
		t.SetAttr("rounds", rounds)
	}
	if res != nil {
		metStrata.Observe(float64(res.Strata))
		t.SetAttr("sample_size", res.SampleSize)
	}
	metQueries.With(outcome(res, err)).Inc()
	return res, err
}

// outcome classifies a finished federated query for the queries counter.
func outcome(res *core.Result, err error) string {
	switch {
	case errors.Is(err, ErrPartialFederation):
		return "partial_failure"
	case errors.Is(err, core.ErrInterrupted):
		return "interrupted"
	case err != nil:
		return "error"
	case res.Converged && !res.Degraded:
		return "converged"
	case res.Degraded:
		return "degraded"
	default:
		return "unconverged"
	}
}

// run is the federated round driver: size the first scatter (a pilot, or
// the query's prior), then scatter, classify member deaths, merge the
// members' moments, and let core.Decide — the engine's stopping rule — stop
// the query or size the next round, which allocate spreads across the live
// members. An execution that ends with an estimate and every member whole
// leaves its final moments as the query's next prior.
func (c *Coordinator) run(ctx context.Context, q *query.Aggregate, opts ...core.QueryOption) (*core.Result, int, error) {
	if q == nil {
		return nil, 0, fmt.Errorf("federate: nil query")
	}
	if !q.Func.HasGuarantee() {
		return nil, 0, fmt.Errorf("federate: %w: %v carries no guarantee to merge", core.ErrFederatedQuery, q.Func)
	}
	if q.GroupBy != "" {
		return nil, 0, fmt.Errorf("federate: %w: GROUP-BY does not decompose into remote strata", core.ErrFederatedQuery)
	}
	rq := core.ResolveQuery(c.base, opts...)
	o := rq.Opts
	gcfg := estimate.GuaranteeConfig{Confidence: o.Confidence}
	qtext := q.String()
	nm := len(c.cfg.Members)

	runs := make([]memberRun, nm)
	strata := make([]estimate.Moments, 0, nm) // contributing members' moments, per round
	alloc := make([]int, nm)
	key := priorKey{query: qtext, tau: o.Tau, eb: o.ErrorBound, confidence: o.Confidence, policy: o.Policy}
	pilot := !c.sizeFromPrior(q.Func, key, o, gcfg, alloc)
	sizing := "prior"
	if pilot {
		sizing = "pilot"
		for i := range alloc {
			alloc[i] = o.MinSample
		}
	}
	metSizing.With(sizing).Inc()
	obs.TraceFrom(ctx).SetAttr("sizing", sizing)

	var (
		v, eps     float64
		estimated  bool
		converged  bool
		degraded   bool // the loop stopped early on the deadline
		anyDeath   bool
		deadNames  []string
		rounds     []core.Round
		sampleTime time.Duration
		lastErr    error // why the latest round had no estimate
	)

	result := func() *core.Result {
		res := &core.Result{
			Query:      q,
			Estimate:   v,
			MoE:        eps,
			Confidence: o.Confidence,
			Converged:  converged,
			Degraded:   anyDeath || degraded,
			TargetEB:   o.ErrorBound,
			Rounds:     rounds,
			Times:      core.StepTimes{Sampling: sampleTime},
		}
		for i := range runs {
			if runs[i].contributing() {
				res.Strata++
				res.SampleSize += runs[i].sample.N
				res.Correct += runs[i].sample.Correct
				res.Candidates += runs[i].candidates
			}
		}
		return res
	}

	for round := 0; ; round++ {
		if cerr := context.Cause(ctx); cerr != nil {
			if estimated {
				return result(), len(rounds), fmt.Errorf("federate: %w: %w", core.ErrInterrupted, cerr)
			}
			return nil, len(rounds), fmt.Errorf("federate: %w before the first merge: %w", core.ErrInterrupted, cerr)
		}
		roundStart := time.Now()
		c.scatter(ctx, qtext, o, runs, alloc, pilot, round)
		sampleTime += time.Since(roundStart)
		pilot = false

		// Classify fresh deaths. A cancelled parent context is the query
		// being interrupted, not members dying; the top of the next
		// iteration reports it.
		if context.Cause(ctx) == nil {
			for i := range runs {
				r := &runs[i]
				if r.err == nil || r.frozen || r.dropped {
					continue
				}
				anyDeath = true
				deadNames = append(deadNames, c.cfg.Members[i].Name)
				if r.sample.N > 0 {
					r.frozen = true
				} else {
					r.dropped = true
				}
			}
			if anyDeath && !rq.Degrade.Enabled() {
				return nil, len(rounds), fmt.Errorf("federate: %w: member(s) %s unreachable past the retry budget",
					ErrPartialFederation, strings.Join(deadNames, ", "))
			}
		}

		// Stratum weights from candidate-space sizes, over every
		// contributing member (frozen included — its sample stays in the
		// merge; dropped and empty members are re-weighted away).
		sumCand := 0
		strata = strata[:0]
		p := core.Progress{Last: round+1 >= o.MaxRounds}
		for i := range runs {
			if r := &runs[i]; r.contributing() {
				sumCand += r.candidates
				strata = append(strata, r.sample)
				p.Draws += r.sample.N
				p.Correct += r.sample.Correct
			}
		}
		if sumCand == 0 {
			if anyDeath {
				return nil, len(rounds), fmt.Errorf("federate: %w: no surviving member holds candidate answers (dead: %s)",
					ErrPartialFederation, strings.Join(deadNames, ", "))
			}
			return nil, len(rounds), fmt.Errorf("federate: %w (0 candidates federation-wide)", ErrUnresolved)
		}

		vr, err := estimate.EstimateMoments(q.Func, strata, o.Policy)
		var er float64
		if err == nil {
			er, err = estimate.MoEMoments(q.Func, strata, o.Policy, gcfg)
		}
		if err == nil {
			v, eps, estimated = vr, er, true
			rounds = append(rounds, core.Round{Estimate: v, MoE: eps, SampleSize: p.Draws})
			if rq.OnRound != nil {
				rq.OnRound(core.Round{Estimate: v, MoE: eps, SampleSize: p.Draws})
			}
			p.Estimated = true
			p.Check(v, eps, o.ErrorBound)
		} else {
			// No estimable merge yet (no correct draws, or a degenerate
			// stratum).
			p.Unestimable, lastErr = true, err
		}
		p.Cost = time.Since(roundStart)
		p.Slack, p.Deadline = rq.Degrade.Slack(ctx)
		st := core.Decide(o, p)
		converged = st.Stop == core.StopConverged
		degraded = st.Stop == core.StopDegraded
		if st.Stop != core.Continue || !c.allocate(runs, alloc, st.Grow, sumCand, p.Draws, o.MaxDraws) {
			break
		}
	}
	if !estimated {
		return nil, len(rounds), fmt.Errorf("federate: %w: %w", core.ErrNotConverged, lastErr)
	}
	if !anyDeath {
		c.priors.put(key, runs)
	}
	return result(), len(rounds), nil
}

// sizeFromPrior fills alloc with the first scatter of a query that has a
// prior: Eq. 12's total evaluated on the prior's final moments, clipped to
// [members × MinSample, MaxDraws], spread over every member — one that was
// empty included — by Neyman allocation on the prior's σ̂ and candidate
// weights. It reports false, leaving alloc untouched, when there is no
// prior or the prior's moments give no estimate; the query then pilots.
func (c *Coordinator) sizeFromPrior(fn query.AggFunc, key priorKey, o core.Options, gcfg estimate.GuaranteeConfig, alloc []int) bool {
	prior, ok := c.priors.get(key)
	if !ok {
		return false
	}
	strata := make([]estimate.Moments, 0, len(prior))
	n, sumCand := 0, 0
	for i := range prior {
		if r := &prior[i]; r.contributing() {
			strata = append(strata, r.sample)
			n += r.sample.N
			sumCand += r.candidates
		}
	}
	v, err := estimate.EstimateMoments(fn, strata, o.Policy)
	if err != nil {
		return false
	}
	eps, err := estimate.MoEMoments(fn, strata, o.Policy, gcfg)
	if err != nil {
		return false
	}
	total := min(max(estimate.TotalSampleSize(n, eps, v, o.ErrorBound), len(prior)*o.MinSample), o.MaxDraws)
	return c.allocate(prior, alloc, total, sumCand, 0, o.MaxDraws)
}

// allocate spreads the next round's delta draws across the live members —
// Neyman on each member's accumulated σ̂, at least one draw per member,
// within the draw budget — and reports whether any member is live.
func (c *Coordinator) allocate(runs []memberRun, alloc []int, delta, sumCand, total, maxDraws int) bool {
	live := make([]estimate.StratumStats, 0, len(runs))
	idx := make([]int, 0, len(runs))
	for i := range runs {
		if runs[i].live() {
			live = append(live, estimate.StratumStats{
				Weight: float64(runs[i].candidates) / float64(sumCand),
				Sigma:  runs[i].sample.Sigma(),
			})
			idx = append(idx, i)
		}
	}
	if len(live) == 0 {
		return false
	}
	delta = min(max(delta, len(live)), maxDraws-total)
	clear(alloc)
	for j, n := range estimate.AllocateDraws(delta, live) {
		alloc[idx[j]] = n
	}
	return true
}

// scatter runs one round's member RPCs in parallel and folds the answers
// into the per-member runs. Members with a zero allocation (or already
// empty/frozen/dropped) are skipped.
func (c *Coordinator) scatter(ctx context.Context, qtext string, o core.Options, runs []memberRun, alloc []int, pilot bool, round int) {
	var wg sync.WaitGroup
	for i := range runs {
		if alloc[i] <= 0 || !runs[i].live() {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &runs[i]
			sm := stats.NewSplitmix(o.Seed + int64(round)*1_000_003 + int64(i)*7_919)
			seed := int64(sm.Next() >> 1)
			req := SampleRequest{
				Query:     qtext,
				Draws:     alloc[i],
				Pilot:     pilot,
				Seed:      seed,
				Tau:       o.Tau,
				TimeoutMS: int(c.cfg.MemberTimeout / time.Millisecond),
			}
			resp, err := c.sampleMember(ctx, i, req)
			if err != nil {
				r.err = err
				return
			}
			r.err = nil
			if resp.Candidates <= 0 {
				r.empty = true
				r.sample, r.candidates = estimate.Moments{}, 0
				return
			}
			if err := resp.Moments.Validate(); err != nil {
				r.err = fmt.Errorf("federate: member %s: %w", c.cfg.Members[i].Name, err)
				return
			}
			if r.epochKnown && resp.Epoch != r.epoch {
				// The member's graph moved between rounds: its earlier draws
				// observed a different graph. Restart its moments from this
				// round's draws alone.
				r.sample = estimate.Moments{}
				metEpochRestarts.Inc()
				c.noteEpochRestart(i)
			}
			r.epoch, r.epochKnown = resp.Epoch, true
			r.sample.Merge(resp.Moments)
			r.candidates = resp.Candidates
			metDraws.Add(float64(resp.Moments.N))
			c.noteEpoch(i, resp.Epoch)
		}(i)
	}
	wg.Wait()
}

// noteRPC folds one member RPC outcome into the cross-query health state.
func (c *Coordinator) noteRPC(mi int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := &c.health[mi]
	h.rpcs++
	h.everSeen = true
	if err == nil {
		h.healthy = true
		h.consecFails = 0
		h.lastErr = ""
		return
	}
	h.errs++
	h.consecFails++
	h.healthy = false
	h.lastErr = err.Error()
	metMemberErrors.With(c.cfg.Members[mi].Name, errKind(err)).Inc()
}

func (c *Coordinator) noteEpoch(mi int, epoch uint64) {
	c.mu.Lock()
	c.health[mi].lastEpoch = epoch
	c.mu.Unlock()
}

func (c *Coordinator) noteEpochRestart(mi int) {
	c.mu.Lock()
	c.health[mi].epochRestarts++
	c.mu.Unlock()
}

// MemberStatus is the externally visible health of one member, as observed
// passively from query traffic (no active probing).
type MemberStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Contacted is false until the first RPC ever reaches this member;
	// Healthy is optimistically true then.
	Contacted           bool   `json:"contacted"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	LastEpoch           uint64 `json:"last_epoch,omitempty"`
	RPCs                uint64 `json:"rpcs"`
	Errors              uint64 `json:"errors,omitempty"`
	EpochRestarts       uint64 `json:"epoch_restarts,omitempty"`
}

// Stats is a point-in-time snapshot of the coordinator.
type Stats struct {
	Members []MemberStatus `json:"members"`
	// Queries counts federated queries started on this coordinator.
	Queries uint64 `json:"queries"`
	// Partial counts queries that lost at least one member (frozen or
	// dropped) and finished degraded.
	Partial uint64 `json:"partial"`
}

// Stats snapshots the coordinator's passively observed state.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Queries: c.queries, Partial: c.partial, Members: make([]MemberStatus, len(c.cfg.Members))}
	for i, m := range c.cfg.Members {
		h := c.health[i]
		s.Members[i] = MemberStatus{
			Name: m.Name, URL: m.URL,
			Healthy: h.healthy, Contacted: h.everSeen,
			ConsecutiveFailures: h.consecFails,
			LastError:           h.lastErr,
			LastEpoch:           h.lastEpoch,
			RPCs:                h.rpcs,
			Errors:              h.errs,
			EpochRestarts:       h.epochRestarts,
		}
	}
	return s
}

// ProbeResult is one member's answer to an active health probe.
type ProbeResult struct {
	Name      string  `json:"name"`
	URL       string  `json:"url"`
	Healthy   bool    `json:"healthy"`
	Error     string  `json:"error,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
}

// Probe actively checks every member's /v1/healthz in parallel (bounded by
// the context). It backs /debug/federation; the cheap passive Stats path
// backs /v1/healthz.
func (c *Coordinator) Probe(ctx context.Context) []ProbeResult {
	out := make([]ProbeResult, len(c.cfg.Members))
	var wg sync.WaitGroup
	for i, m := range c.cfg.Members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			start := time.Now()
			err := probeOne(ctx, c.cfg.Client, m.URL)
			out[i] = ProbeResult{
				Name: m.Name, URL: m.URL,
				Healthy:   err == nil,
				LatencyMS: float64(time.Since(start).Microseconds()) / 1e3,
			}
			if err != nil {
				out[i].Error = err.Error()
			}
		}(i, m)
	}
	wg.Wait()
	return out
}

// probeOne GETs one member's health endpoint.
func probeOne(ctx context.Context, client *http.Client, baseURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	res, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(res.Body, 4096))
		res.Body.Close()
	}()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", res.StatusCode)
	}
	return nil
}
