package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strings"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/federate"
	"kgaq/internal/obs"
	"kgaq/internal/query"
)

// This file is the one request pipeline of the JSON work endpoints
// (/v1/query, /v1/plans/{id}/query, /v1/prepare, /v1/federate/sample):
// head (decode → query text or plan → options → deadline → trace), then
// for queries one dispatch against a target and one response writer.

// queryRequest is the body of POST /v1/query and POST /v1/plans/{id}/query
// (which takes no "query": the plan carries it). It holds every field the
// request head reads — the query text, the deadline, and each field that
// becomes a core.QueryOption — so /v1/prepare and /v1/federate/sample,
// which accept subsets, are read into it too (see fieldsOf). Zero-valued
// fields keep the server's engine defaults.
type queryRequest struct {
	// Query is the textual aggregate query, e.g.
	// "AVG(price) MATCH (g:Country name=Germany)-[product]->(c:Automobile) TARGET c".
	Query string `json:"query"`

	ErrorBound float64 `json:"error_bound,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Tau        float64 `json:"tau,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	MaxDraws   int     `json:"max_draws,omitempty"`
	MaxRounds  int     `json:"max_rounds,omitempty"`
	// Sampler selects "semantic" (default), "cnarw" or "node2vec".
	Sampler string `json:"sampler,omitempty"`
	// TimeoutMS bounds this request's execution; on expiry a query response
	// carries the partial estimate with interrupted=true.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MinEpoch pins the query to a graph view at or above this epoch —
	// read-your-writes: pass the epoch a /v1/mutate response carried and the
	// query observes that batch. The query waits (bounded by timeout_ms /
	// the request context) for the epoch on a live server; a static server
	// rejects positive values.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// Shards overrides the server's shard count for this query: the
	// candidate-answer space is cut into this many ownership strata,
	// sampled per shard and merged with the stratified Horvitz–Thompson
	// combiner. Requires the semantic sampler.
	Shards int `json:"shards,omitempty"`
	// EpochPolicy is /v1/prepare's "pin" (default) or "repin"; /v1/query
	// has no such field.
	EpochPolicy string `json:"-"`
	// Stream switches the response to NDJSON: one {"round":…} line per
	// refinement round as it happens, then a final {"result":…} line.
	Stream bool `json:"stream,omitempty"`
	// Aggregates switches the request to multi-aggregate execution: every
	// listed aggregate is evaluated over one shared sample of the query
	// graph (the query's own aggregate function is ignored), refined until
	// each guaranteed aggregate meets its error bound. Incompatible with
	// "stream".
	Aggregates []aggSpecJSON `json:"aggregates,omitempty"`
}

// aggSpecJSON is one multi-aggregate target on the wire.
type aggSpecJSON struct {
	// Func is COUNT, SUM, AVG, MAX or MIN (case-insensitive).
	Func string `json:"func"`
	// Attr is the aggregated attribute; omit only for COUNT.
	Attr string `json:"attr,omitempty"`
	// ErrorBound optionally tightens/loosens this aggregate's bound.
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// toSpecs translates the wire form into engine specs.
func toSpecs(in []aggSpecJSON) ([]core.AggSpec, error) {
	out := make([]core.AggSpec, len(in))
	for i, a := range in {
		fn, err := query.ParseAggFunc(a.Func)
		if err != nil {
			return nil, fmt.Errorf("aggregates[%d]: %v", i, err)
		}
		out[i] = core.AggSpec{Func: fn, Attr: a.Attr, ErrorBound: a.ErrorBound}
	}
	return out, nil
}

// fieldsOf reads the head fields of a decoded work-endpoint body.
func fieldsOf(body any) queryRequest {
	switch b := body.(type) {
	case *queryRequest:
		return *b
	case *prepareRequest:
		return queryRequest{Query: b.Query, Tau: b.Tau, Shards: b.Shards, MinEpoch: b.MinEpoch,
			EpochPolicy: b.EpochPolicy, TimeoutMS: b.TimeoutMS}
	}
	b := body.(*federate.SampleRequest)
	return queryRequest{Query: b.Query, Seed: b.Seed, Tau: b.Tau, TimeoutMS: b.TimeoutMS}
}

// options is the one translation from request fields to per-query options.
func (f *queryRequest) options() ([]core.QueryOption, error) {
	var opts []core.QueryOption
	if f.ErrorBound > 0 {
		opts = append(opts, core.WithErrorBound(f.ErrorBound))
	}
	if f.Confidence > 0 {
		opts = append(opts, core.WithConfidence(f.Confidence))
	}
	if f.Tau > 0 {
		opts = append(opts, core.WithTau(f.Tau))
	}
	if f.Seed != 0 {
		opts = append(opts, core.WithSeed(f.Seed))
	}
	if f.MaxDraws > 0 {
		opts = append(opts, core.WithMaxDraws(f.MaxDraws))
	}
	if f.MaxRounds > 0 {
		opts = append(opts, core.WithMaxRounds(f.MaxRounds))
	}
	if f.MinEpoch > 0 {
		opts = append(opts, core.WithMinEpoch(f.MinEpoch))
	}
	if f.Shards > 0 {
		opts = append(opts, core.WithShards(f.Shards))
	}
	switch strings.ToLower(f.Sampler) {
	case "", "semantic":
	case "cnarw":
		opts = append(opts, core.WithSampler(core.SamplerCNARW))
	case "node2vec":
		opts = append(opts, core.WithSampler(core.SamplerNode2Vec))
	default:
		return nil, fmt.Errorf("unknown sampler %q (semantic, cnarw, node2vec)", f.Sampler)
	}
	switch strings.ToLower(f.EpochPolicy) {
	case "", "pin":
	case "repin":
		opts = append(opts, core.WithEpochPolicy(core.EpochRepin))
	default:
		return nil, fmt.Errorf("unknown epoch_policy %q (pin, repin)", f.EpochPolicy)
	}
	return opts, nil
}

// contentTypeOK reports whether a request Content-Type is acceptable for a
// JSON body: unset (bare curl -d) or any application/json variant.
func contentTypeOK(header string, accept ...string) bool {
	if header == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return false
	}
	for _, a := range accept {
		if mt == a {
			return true
		}
	}
	return false
}

// readJSON decodes one JSON request body under the shared hardening rules:
// a non-JSON Content-Type is 415, a body over maxBytes is 413, malformed
// JSON or data after the one value is 400. It reports whether decoding
// succeeded; on failure the error response has already been written.
func readJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	if ct := r.Header.Get("Content-Type"); !contentTypeOK(ct, "application/json") {
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (use application/json)", ct)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// {"query":"A"}{"query":"B"} is not a request for A.
		_, err = dec.Token()
		if errors.Is(err, io.EOF) {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

// work is a request past the head: its query (text is the canonical
// string the trace and the response carry), its options, the executed plan
// on /v1/plans/{id}/query, and the context bearing its deadline and trace.
type work struct {
	ctx  context.Context
	agg  *query.Aggregate
	text string
	plan *planEntry
	opts []core.QueryOption
}

// endpoint wraps a JSON work endpoint in the request head: decode the body
// (415/413/400), read the query text or look up the plan (400/404),
// translate the fields into options (400), apply timeout_ms, start the
// trace of kind, and serve. The trace is sealed and the deadline released
// when serve returns.
func endpoint[B any](s *Server, kind string, serve func(http.ResponseWriter, *work, *B)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body B
		if !readJSON(w, r, maxRequestBody, &body) {
			return
		}
		f := fieldsOf(&body)
		wk := work{ctx: r.Context()}
		var err error
		if id := r.PathValue("id"); id != "" {
			if f.Query != "" {
				writeError(w, http.StatusBadRequest, "\"query\" belongs to /v1/prepare; the plan already carries it")
				return
			}
			if wk.plan = s.plans.get(id); wk.plan == nil {
				metPlanMisses.Inc()
				writeError(w, http.StatusNotFound, "unknown or expired plan %q (POST /v1/prepare first)", id)
				return
			}
			metPlanHits.Inc()
			wk.agg = wk.plan.agg
		} else {
			if f.Query == "" {
				writeError(w, http.StatusBadRequest, "missing \"query\"")
				return
			}
			if wk.agg, err = query.Parse(f.Query); err != nil {
				writeError(w, http.StatusBadRequest, "parse: %v", err)
				return
			}
		}
		if wk.opts, err = f.options(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The request context carries both the client disconnect and the
		// server drain; the optional timeout layers on top. Either way the
		// engine returns its partial estimate instead of running on.
		if f.TimeoutMS > 0 {
			var cancel context.CancelFunc
			wk.ctx, cancel = context.WithTimeout(wk.ctx, time.Duration(f.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		wk.text = wk.agg.String()
		wk.ctx = s.trace(wk.ctx, w, kind, wk.text)
		defer s.seal(wk.ctx)
		serve(w, &wk, &body)
	}
}

// refusals is the dispatch table: the request fields a target does not
// accept, checked in order. A coordinator is a target with no
// multi-aggregate runner and no per-member knobs: the shapes that do not
// decompose into remote strata are the client's to send to a member.
var refusals = []struct {
	coordinator bool // the row binds only when the target is the coordinator
	refused     func(*queryRequest) bool
	msg         string
}{
	{true, func(q *queryRequest) bool { return len(q.Aggregates) > 0 },
		"multi-aggregate queries do not federate (one shared sample cannot span members)"},
	{true, func(q *queryRequest) bool { return q.MinEpoch > 0 },
		"min_epoch is not meaningful across federation members (each owns its own epoch sequence)"},
	{true, func(q *queryRequest) bool { return q.Sampler != "" && !strings.EqualFold(q.Sampler, "semantic") },
		"sampler does not federate (every member samples with its own engine's sampler)"},
	{true, func(q *queryRequest) bool { return q.Shards > 0 },
		"shards do not federate (each member is one stratum of the merge)"},
	{false, func(q *queryRequest) bool { return len(q.Aggregates) > 0 && q.Stream },
		"\"aggregates\" and \"stream\" are incompatible"},
}

// serveQuery is /v1/query and /v1/plans/{id}/query past the head: apply
// the degradation policy, refuse what the target does not accept, and
// answer single, streamed or multi-aggregate.
func (s *Server) serveQuery(w http.ResponseWriter, wk *work, req *queryRequest) {
	wk.opts = append(wk.opts, s.degradeOptions(wk.ctx, req.ErrorBound)...)
	coordinator := s.fed != nil && wk.plan == nil
	for _, rf := range refusals {
		if (coordinator || !rf.coordinator) && rf.refused(req) {
			writeError(w, http.StatusBadRequest, "%s", rf.msg)
			return
		}
	}
	var specs []core.AggSpec
	if len(req.Aggregates) > 0 {
		var err error
		if specs, err = toSpecs(req.Aggregates); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.respond(w, wk, req.Stream, specs)
}

// execute runs the query against its target — a prepared plan, the
// federation coordinator or the local engine — and converts the result.
// estimated reports whether the result carries at least one estimate; the
// answer is nil when the execution produced no result.
func (s *Server) execute(wk *work, specs []core.AggSpec, opts []core.QueryOption) (ans answer, estimated bool, err error) {
	begin := time.Now()
	if specs != nil {
		var res *core.MultiResult
		if wk.plan != nil {
			res, err = wk.plan.prepared.QueryMulti(wk.ctx, specs, opts...)
		} else {
			res, err = s.eng.QueryMulti(wk.ctx, wk.agg, specs, opts...)
		}
		if res == nil {
			return nil, false, err
		}
		return toMultiResponse(wk.text, res, time.Since(begin)), anyEstimate(res), err
	}
	var res *core.Result
	switch {
	case wk.plan != nil:
		res, err = wk.plan.prepared.Query(wk.ctx, opts...)
	case s.fed != nil:
		res, err = s.fed.Query(wk.ctx, wk.agg, opts...)
	default:
		res, err = s.eng.Query(wk.ctx, wk.agg, opts...)
	}
	if res == nil {
		return nil, false, err
	}
	return toResponse(wk.text, res, time.Since(begin)), !math.IsNaN(res.Estimate), err
}

// respond executes the query and writes its one response: a JSON body, or
// with stream NDJSON — a {"round":…} line per refinement round, then one
// {"result":…} or {"error":…} line.
func (s *Server) respond(w http.ResponseWriter, wk *work, stream bool, specs []core.AggSpec) {
	opts := wk.opts
	var nd *ndjson
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		lines := &ndjson{enc: json.NewEncoder(w)}
		lines.enc.SetEscapeHTML(false)
		lines.flusher, _ = w.(http.Flusher)
		opts = append(opts, core.OnRound(func(r core.Round) {
			lines.emit(map[string]roundJSON{"round": roundOf(r)})
		}))
		nd = lines
	}
	ans, estimated, err := s.execute(wk, specs, opts)
	// A partial result is only worth a 200 when it carries an estimate; an
	// interruption before the first completed round is the same outcome as
	// one during preparation — a timeout.
	if err != nil && !(estimated && errors.Is(err, core.ErrInterrupted)) {
		switch {
		case nd == nil:
			writeError(w, errorStatus(err), "%v", err)
			return
		case !nd.wrote:
			// While nothing has been streamed the status line is still ours
			// to set; match the non-stream path instead of defaulting to 200.
			w.WriteHeader(errorStatus(err))
		}
		nd.emit(map[string]string{"error": err.Error()})
		return
	}
	h := ans.head()
	if err != nil {
		h.Interrupted, h.Error = true, err.Error()
	}
	s.finish(wk.ctx, h)
	if nd != nil {
		nd.emit(map[string]answer{"result": ans})
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

// ndjson writes a streamed response one line at a time, flushing each
// immediately. OnRound fires on the request's goroutine, so it needs no
// locking.
type ndjson struct {
	enc     *json.Encoder
	flusher http.Flusher
	wrote   bool
}

func (n *ndjson) emit(v any) {
	n.wrote = true
	_ = n.enc.Encode(v)
	if n.flusher != nil {
		n.flusher.Flush()
	}
}

// finish is the one finish step of a query response: fold the request's
// degradation record (the admission grant's relaxed bound) into it, mirror
// the final degraded flag and convergence telemetry into the request state
// for the access log and grant outcome, and seal the trace.
func (s *Server) finish(ctx context.Context, h *answerJSON) {
	if st := stateFrom(ctx); st != nil {
		if st.effectiveEB > 0 {
			h.EffectiveEB = st.effectiveEB
			h.Degraded = true
		}
		if h.Degraded {
			st.degraded = true
		}
		st.rounds, st.hasRounds = h.rounds, true
		st.achievedEB = h.achievedEB
	}
	h.TraceID = s.seal(ctx)
}

// seal finishes the request's trace before its response is written, so a
// client can fetch it by the echoed id the moment it reads the response,
// and returns that id ("" when the request was not sampled). Finish is
// idempotent: the head's deferred seal is then a no-op.
func (s *Server) seal(ctx context.Context) string {
	t := obs.TraceFrom(ctx)
	s.tracer.Finish(t)
	return t.ID()
}

// answer is a query response: single-aggregate or multi-aggregate.
type answer interface{ head() *answerJSON }

func (r *queryResponse) head() *answerJSON { return &r.answerJSON }
func (r *multiResponse) head() *answerJSON { return &r.answerJSON }

// answerJSON is what single and multi-aggregate responses share.
type answerJSON struct {
	Query       string  `json:"query"`
	Confidence  float64 `json:"confidence"`
	Converged   bool    `json:"converged"`
	Interrupted bool    `json:"interrupted,omitempty"`
	SampleSize  int     `json:"sample_size"`
	Distinct    int     `json:"distinct"`
	Candidates  int     `json:"candidates"`
	Shards      int     `json:"shards,omitempty"`
	Epoch       uint64  `json:"epoch"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Degraded marks an answer the serving tier loosened honestly: the loop
	// stopped before the target bound (deadline pressure) or ran against a
	// relaxed effective bound (queue pressure). The interval is still a
	// valid 1-α interval — achieved_eb is the bound it actually guarantees.
	Degraded bool `json:"degraded,omitempty"`
	// EffectiveEB is the relaxed bound admission substituted under queue
	// pressure (absent when the request's own bound was used).
	EffectiveEB float64 `json:"effective_eb,omitempty"`
	// TraceID names this execution's lifecycle trace, fetchable at
	// /debug/trace/{id} on the debug listener while it stays in the ring
	// (absent when the request was not sampled).
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`

	// rounds and achievedEB are the access log's convergence telemetry.
	rounds     int
	achievedEB *float64
}

// estimateJSON is one aggregate's estimate, interval and refinement
// history: the body of a single-aggregate response and of each entry of a
// multi-aggregate one.
type estimateJSON struct {
	Estimate *float64 `json:"estimate"`
	MoE      *float64 `json:"moe"`
	// AchievedEB is the relative error bound the returned interval actually
	// attains (null when no finite bound is honest).
	AchievedEB *float64             `json:"achieved_eb,omitempty"`
	Rounds     []roundJSON          `json:"rounds,omitempty"`
	Groups     map[string]groupJSON `json:"groups,omitempty"`
	// Exact marks a census answer: read off every candidate, MoE 0.
	Exact bool `json:"exact,omitempty"`
}

// roundJSON is one refinement round on the wire.
type roundJSON struct {
	Estimate   float64  `json:"estimate"`
	MoE        *float64 `json:"moe"`
	SampleSize int      `json:"sample_size"`
}

// groupJSON is one GROUP-BY bucket on the wire.
type groupJSON struct {
	Estimate float64  `json:"estimate"`
	MoE      *float64 `json:"moe"`
	Draws    int      `json:"draws"`
}

// queryResponse is the body of a successful (or partial) query execution.
type queryResponse struct {
	answerJSON
	estimateJSON
	// TargetEB is the bound this execution refined toward.
	TargetEB float64 `json:"target_eb,omitempty"`
}

// aggResultJSON is one aggregate's outcome within a multi-aggregate
// response.
type aggResultJSON struct {
	Func       string  `json:"func"`
	Attr       string  `json:"attr,omitempty"`
	ErrorBound float64 `json:"error_bound"`
	Converged  bool    `json:"converged"`
	estimateJSON
}

// multiResponse is the body of a multi-aggregate execution: shared sample
// counters plus one result per aggregate.
type multiResponse struct {
	answerJSON
	Aggs   []aggResultJSON `json:"aggregates"`
	Rounds int             `json:"rounds"`
}

// jsonFloat maps NaN/Inf (JSON-unrepresentable) to null.
func jsonFloat(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

func roundOf(r core.Round) roundJSON {
	return roundJSON{Estimate: r.Estimate, MoE: jsonFloat(r.MoE), SampleSize: r.SampleSize}
}

func estimateOf(est, moe, achieved float64, exact bool, rounds []core.Round, groups map[string]core.GroupResult) estimateJSON {
	out := estimateJSON{Estimate: jsonFloat(est), MoE: jsonFloat(moe), AchievedEB: jsonFloat(achieved), Exact: exact}
	if len(rounds) > 0 {
		out.Rounds = make([]roundJSON, len(rounds))
		for i, r := range rounds {
			out.Rounds[i] = roundOf(r)
		}
	}
	if groups != nil {
		out.Groups = make(map[string]groupJSON, len(groups))
		for label, gr := range groups {
			out.Groups[label] = groupJSON{Estimate: gr.Estimate, MoE: jsonFloat(gr.MoE), Draws: gr.Draws}
		}
	}
	return out
}

func elapsedMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func toResponse(text string, res *core.Result, elapsed time.Duration) *queryResponse {
	out := &queryResponse{
		answerJSON: answerJSON{Query: text, Confidence: res.Confidence, Converged: res.Converged,
			SampleSize: res.SampleSize, Distinct: res.Distinct, Candidates: res.Candidates,
			Shards: res.Shards, Epoch: res.Epoch, ElapsedMS: elapsedMS(elapsed), Degraded: res.Degraded, rounds: len(res.Rounds)},
		estimateJSON: estimateOf(res.Estimate, res.MoE, res.AchievedEB(), res.Exact, res.Rounds, res.Groups),
		TargetEB:     res.TargetEB,
	}
	out.achievedEB = out.AchievedEB
	return out
}

func toMultiResponse(text string, res *core.MultiResult, elapsed time.Duration) *multiResponse {
	out := &multiResponse{
		answerJSON: answerJSON{Query: text, Confidence: res.Confidence, Converged: res.Converged,
			SampleSize: res.SampleSize, Distinct: res.Distinct, Candidates: res.Candidates,
			Shards: res.Shards, Epoch: res.Epoch, ElapsedMS: elapsedMS(elapsed), Degraded: res.Degraded, rounds: res.Rounds},
		Aggs:   make([]aggResultJSON, len(res.Aggs)),
		Rounds: res.Rounds,
	}
	for i := range res.Aggs {
		ar := &res.Aggs[i]
		out.Aggs[i] = aggResultJSON{Func: ar.Spec.Func.String(), Attr: ar.Spec.Attr,
			ErrorBound: ar.ErrorBound, Converged: ar.Converged,
			estimateJSON: estimateOf(ar.Estimate, ar.MoE, ar.AchievedEB(), ar.Exact, ar.Rounds, ar.Groups)}
	}
	return out
}

// anyEstimate reports whether a multi result carries at least one estimate.
func anyEstimate(res *core.MultiResult) bool {
	for _, ar := range res.Aggs {
		if !math.IsNaN(ar.Estimate) {
			return true
		}
	}
	return false
}
