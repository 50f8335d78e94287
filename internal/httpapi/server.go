package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"kgaq/internal/admission"
	"kgaq/internal/buildinfo"
	"kgaq/internal/core"
	"kgaq/internal/federate"
	"kgaq/internal/live"
	"kgaq/internal/obs"
)

// maxRequestBody bounds a query request; the textual language is tiny.
const maxRequestBody = 1 << 20

// maxMutateBody bounds one NDJSON mutation batch.
const maxMutateBody = 8 << 20

// Server is the HTTP/JSON serving layer over one shared Engine. The
// Engine's concurrency guarantee is what lets a single Server instance
// answer parallel requests without any locking of its own: every request
// runs an independent Execution. When constructed over a live store
// (NewLiveServer) it additionally accepts mutation batches on /v1/mutate.
// Prepared plans (POST /v1/prepare) live in an internally synchronised
// TTL/LRU cache shared by every request.
type Server struct {
	eng     *core.Engine
	store   *live.Store   // nil for a read-only (static-graph) server
	dur     *live.Durable // nil when the live store is memory-only
	plans   *planCache
	started time.Time

	// adm gates the work endpoints (nil = no admission control); see
	// ConfigureAdmission.
	adm *admission.Controller
	// clientHeader names the request header carrying the client identity
	// for rate limiting ("" = ClientIDHeader).
	clientHeader string
	// logger receives one structured access-log line per request (nil =
	// no access logging).
	logger *slog.Logger
	// tracer samples query lifecycles into a bounded ring served under
	// /debug/trace; see ConfigureTracing.
	tracer *obs.Tracer
	// fed makes this server a federation coordinator: /v1/query scatters
	// across its members instead of running locally (nil = plain member /
	// standalone server); see ConfigureFederation.
	fed *federate.Coordinator
	// build is the binary's build provenance, shown in healthz when the
	// binary registered it (see ConfigureBuild).
	build *buildinfo.Info
}

// ConfigureBuild records the serving binary's build provenance for the
// healthz "build" block. Call before serving.
func (s *Server) ConfigureBuild(info buildinfo.Info) { s.build = &info }

// NewServer wraps an engine for read-only serving.
func NewServer(eng *core.Engine) *Server {
	return &Server{
		eng:     eng,
		plans:   newPlanCache(0, 0),
		started: time.Now(),
		tracer:  obs.NewTracer(0, 1),
	}
}

// NewLiveServer wraps a live engine and its mutation store for read-write
// serving.
func NewLiveServer(eng *core.Engine, store *live.Store) *Server {
	s := NewServer(eng)
	s.store = store
	return s
}

// ConfigurePlans re-bounds the prepared-plan cache (flags -plan-cap /
// -plan-ttl). Call before serving.
func (s *Server) ConfigurePlans(capacity int, ttl time.Duration) {
	s.plans = newPlanCache(capacity, ttl)
}

// ConfigureAdmission puts the work endpoints (/v1/query, /v1/prepare,
// /v1/plans/{id}/query, /v1/federate/sample, /v1/mutate — healthz stays
// exempt) behind an admission controller: per-client rate limits, the
// bounded work queue with fast 429/503 + Retry-After shedding, and
// pressure-based degradation grants. clientHeader overrides the header the
// client identity is read from ("" = ClientIDHeader). Call before serving.
func (s *Server) ConfigureAdmission(c *admission.Controller, clientHeader string) {
	s.adm = c
	s.clientHeader = clientHeader
}

// ConfigureLogging enables the structured access log: one line per request
// with request id, client, method, route, status, latency, and the
// shed/degraded markers. Call before serving.
func (s *Server) ConfigureLogging(l *slog.Logger) { s.logger = l }

// ConfigureTracing re-bounds the query-lifecycle trace ring (flags
// -trace-ring / -trace-sample): capacity finished traces are retained for
// /debug/trace, and one request in sampleEvery is traced (1 = all,
// 0 = tracing off). Call before serving.
func (s *Server) ConfigureTracing(capacity, sampleEvery int) {
	s.tracer = obs.NewTracer(capacity, sampleEvery)
}

// trace begins the request's lifecycle trace: the trace id is echoed in the
// X-Trace-ID header (and later the response body), recorded for the access
// log, and the trace travels to the engine through the context. seal
// finishes it into the ring.
func (s *Server) trace(ctx context.Context, w http.ResponseWriter, kind, target string) context.Context {
	t := s.tracer.Start(kind, target)
	if t == nil {
		return ctx
	}
	w.Header().Set(TraceIDHeader, t.ID())
	if st := stateFrom(ctx); st != nil {
		st.traceID = t.ID()
	}
	return obs.WithTrace(ctx, t)
}

// ConfigureDurability routes /v1/mutate through a durable store: a batch
// is acknowledged only once its WAL record is durable per the configured
// sync policy. healthz and /debug/durability gain the durability picture.
// Call before serving; d must wrap the same live store the server was
// built over.
func (s *Server) ConfigureDurability(d *live.Durable) { s.dur = d }

// Admission returns the configured controller (nil when admission is off).
func (s *Server) Admission() *admission.Controller { return s.adm }

// Drain performs the serving-tier half of a graceful shutdown: new and
// queued requests shed with 503 "draining" while in-flight ones run to
// completion. Call it before closing the listener; a nil-admission server
// drains trivially.
func (s *Server) Drain(ctx context.Context) error {
	if s.adm == nil {
		return nil
	}
	return s.adm.Drain(ctx)
}

// Handler returns the routed HTTP handler:
//
//	POST /v1/query            — execute one aggregate query, or several
//	                            aggregates over one sample ("aggregates")
//	POST /v1/prepare          — compile a query into a cached plan → plan id
//	POST /v1/plans/{id}/query — execute a prepared plan (single or multi)
//	POST /v1/federate/sample  — one member round of a federated query
//	POST /v1/mutate           — apply one atomic mutation batch (NDJSON, live servers)
//	GET  /v1/healthz          — liveness plus graph statistics and the current epoch
//
// Work endpoints pass through the admission controller; healthz stays
// exempt so load balancers can probe a saturated or draining server. The
// whole mux sits inside the instrumentation middleware (request ids +
// access log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.admit(endpoint(s, "query", s.serveQuery)))
	mux.HandleFunc("POST /v1/prepare", s.admit(endpoint(s, "prepare", s.servePrepare)))
	mux.HandleFunc("POST /v1/plans/{id}/query", s.admit(endpoint(s, "plan_query", s.serveQuery)))
	mux.HandleFunc("POST /v1/federate/sample", s.admit(endpoint(s, "federate-sample", s.serveFederateSample)))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if s.store != nil {
		mux.HandleFunc("POST /v1/mutate", s.admit(s.handleMutate))
	}
	return s.recoverPanics(s.instrument(mux))
}

// errorStatus maps execution errors onto HTTP statuses: resolution errors
// are the client's fault, everything else is the engine's.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrUnknownEntity),
		errors.Is(err, core.ErrUnknownType),
		errors.Is(err, core.ErrUnknownPredicate),
		errors.Is(err, core.ErrUnknownAttribute),
		errors.Is(err, core.ErrPlanSampler),
		errors.Is(err, core.ErrPlanOption),
		errors.Is(err, core.ErrBadAggSpec),
		errors.Is(err, core.ErrFederatedQuery),
		errors.Is(err, federate.ErrUnresolved),
		errors.Is(err, core.ErrEpochNotReached):
		return http.StatusBadRequest
	case errors.Is(err, federate.ErrPartialFederation):
		// Members died past the retry budget and no degradation was allowed:
		// the coordinator's upstream failed, not the client or this process.
		return http.StatusBadGateway
	case errors.Is(err, core.ErrNotConverged):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrInterrupted):
		// A timeout/disconnect that landed before any partial result exists
		// (e.g. during preparation) is the client's deadline, not our fault.
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// isMutationError reports whether an Apply failure is the batch's fault
// (validation rejected it — a 400) as opposed to a durability failure
// (WAL write/sync error, store closed — the server's 503).
func isMutationError(err error) bool {
	return errors.Is(err, live.ErrUnknownEntity) ||
		errors.Is(err, live.ErrFrozenPredicate) ||
		errors.Is(err, live.ErrEdgeNotFound) ||
		errors.Is(err, live.ErrSelfLoop) ||
		errors.Is(err, live.ErrBadMutation)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// prepareRequest is the body of POST /v1/prepare: the textual query plus
// the plan-relevant options. Execution-level knobs (error bound, seed,
// draw budgets) belong on the per-execution /v1/plans/{id}/query request
// instead; the ones here are compiled into the plan.
type prepareRequest struct {
	Query string `json:"query"`
	// Tau is compiled into the plan's validation oracle.
	Tau float64 `json:"tau,omitempty"`
	// EpochPolicy is "pin" (default: freeze the Prepare-time snapshot) or
	// "repin" (follow the live graph, rebuilding when the epoch moves).
	EpochPolicy string `json:"epoch_policy,omitempty"`
	// MinEpoch makes the plan observe at least this epoch (read-your-writes
	// at prepare time).
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// TimeoutMS bounds the compilation (walk convergence).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// servePrepare compiles a query into a cached plan and returns its id and
// metadata. The id is a content hash, so preparing the same query twice is
// idempotent and refreshes the plan's TTL.
func (s *Server) servePrepare(w http.ResponseWriter, wk *work, req *prepareRequest) {
	id := planID(wk.text, req.optFingerprint())
	e := s.plans.get(id)
	if e != nil {
		// Idempotent re-prepare: the resident plan is fresh again.
		metPlanHits.Inc()
	} else {
		metPlanMisses.Inc()
		p, err := s.eng.Prepare(wk.ctx, wk.agg, wk.opts...)
		if err != nil {
			writeError(w, errorStatus(err), "%v", err)
			return
		}
		e = s.plans.put(id, p, wk.agg)
	}
	s.seal(wk.ctx)
	writeJSON(w, http.StatusOK, s.plans.entryJSON(e, time.Now()))
}

// cacheJSON is the answer-space cache snapshot on the wire, shared by
// /v1/healthz and the debug mux's /debug/cache.
type cacheJSON struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
	Bytes   int64   `json:"bytes"`
	// Plans and PlanBytes are the share of Entries and Bytes held by
	// assembled answer spaces (the rest is converged stages).
	Plans     int   `json:"plans"`
	PlanBytes int64 `json:"plan_bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

func cacheSnapshot(eng *core.Engine) cacheJSON {
	st := eng.CacheStats()
	return cacheJSON{
		Hits:      st.Hits,
		Misses:    st.Misses,
		HitRate:   st.HitRate(),
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		Plans:     st.Plans,
		PlanBytes: st.PlanBytes,
		MaxBytes:  st.MaxBytes,
	}
}

// healthResponse is the body of GET /v1/healthz.
type healthResponse struct {
	Status     string    `json:"status"`
	UptimeS    float64   `json:"uptime_s"`
	Nodes      int       `json:"nodes"`
	Edges      int       `json:"edges"`
	Predicates int       `json:"predicates"`
	Types      int       `json:"types"`
	Epoch      uint64    `json:"epoch"`
	Live       bool      `json:"live"`
	DeltaNodes int       `json:"delta_nodes,omitempty"`
	Cache      cacheJSON `json:"cache"`
	Plans      int       `json:"plans"`
	// Admission is the serving tier's load snapshot: in-flight/queued depth,
	// shed and degrade counters, and the latency-SLO percentiles (absent
	// when admission control is off).
	Admission *admission.Stats `json:"admission,omitempty"`
	// Durability is the WAL/checkpoint picture: last synced epoch, newest
	// checkpoint, segment count and the boot-time recovery stats (absent on
	// memory-only servers).
	Durability *live.DurabilityStats `json:"durability,omitempty"`
	// Federation is the coordinator's passive member-health picture (absent
	// unless this server coordinates a federation).
	Federation *federationHealth `json:"federation,omitempty"`
	// Build is the binary's build provenance (absent until the binary
	// registers it; see ConfigureBuild).
	Build *buildinfo.Info `json:"build,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g, epoch := s.eng.Snapshot()
	h := healthResponse{
		Status:     "ok",
		UptimeS:    time.Since(s.started).Seconds(),
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Predicates: g.NumPredicates(),
		Types:      g.NumTypes(),
		Epoch:      epoch,
		Live:       s.store != nil,
		Cache:      cacheSnapshot(s.eng),
		Plans:      s.plans.len(),
	}
	if s.store != nil {
		h.DeltaNodes = s.store.Snapshot().DeltaSize()
	}
	if s.adm != nil {
		st := s.adm.Stats()
		h.Admission = &st
		if st.Draining {
			h.Status = "draining"
		}
	}
	if s.dur != nil {
		st := s.dur.Stats()
		h.Durability = &st
	}
	h.Federation = s.federationHealth()
	h.Build = s.build
	writeJSON(w, http.StatusOK, h)
}

// mutateResponse is the body of a successful POST /v1/mutate.
type mutateResponse struct {
	// Epoch is the epoch the batch created; pass it back as min_epoch on
	// /v1/query for read-your-writes.
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	// TraceID names this batch's lifecycle trace (see queryResponse).
	TraceID string `json:"trace_id,omitempty"`
}

// handleMutate applies one atomic mutation batch, encoded as NDJSON: one
// JSON mutation object per line (see live.Mutation), e.g.
//
//	{"op":"add_entity","entity":"Tesla_3","types":["Automobile"]}
//	{"op":"add_edge","src":"Germany","pred":"product","dst":"Tesla_3"}
//	{"op":"set_attr","entity":"Tesla_3","attr":"price","value":39000}
//
// The whole request is one batch: either every line lands and the response
// carries the new epoch, or nothing does and the 400 body names the
// offending line.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); !contentTypeOK(ct,
		"application/x-ndjson", "application/jsonlines", "application/json") {
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (use application/x-ndjson)", ct)
		return
	}
	var batch live.Batch
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxMutateBody))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m live.Mutation
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			writeError(w, http.StatusBadRequest, "line %d: %v", lineNo, err)
			return
		}
		batch = append(batch, m)
	}
	if err := sc.Err(); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"mutation batch exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation batch")
		return
	}
	ctx := s.trace(r.Context(), w, "mutate", fmt.Sprintf("%d mutations", len(batch)))
	defer s.seal(ctx)
	// On a durable server the batch is framed into the WAL (and fsynced,
	// under sync=always) strictly before this returns: the acknowledged
	// epoch survives a kill.
	var snap *live.Snapshot
	var err error
	if s.dur != nil {
		snap, err = s.dur.Apply(batch)
	} else {
		snap, err = s.store.Apply(batch)
	}
	if err != nil {
		if isMutationError(err) {
			// A malformed or unsatisfiable batch — the client's to fix; the
			// store state is untouched.
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The batch was valid but could not be made durable (WAL failure,
		// store closed mid-drain): the server's fault, nothing applied.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	// Counts come from the snapshot this very batch created, so the
	// response is self-consistent even while other clients keep writing.
	resp := mutateResponse{
		Epoch:   snap.Epoch(),
		Applied: len(batch),
		Nodes:   snap.NumNodes(),
		Edges:   snap.NumEdges(),
	}
	t := obs.TraceFrom(ctx)
	t.SetAttr("epoch", snap.Epoch())
	t.SetAttr("applied", len(batch))
	resp.TraceID = s.seal(ctx)
	writeJSON(w, http.StatusOK, resp)
}

// debugRoute is one entry of the /debug/ index.
type debugRoute struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
}

// debugIndex describes every route the debug mux serves; GET /debug/
// returns it so operators can discover the surface without the source.
var debugIndex = []debugRoute{
	{"/metrics", "process metrics, Prometheus text exposition format"},
	{"/debug/trace", "retained query-lifecycle traces, newest first"},
	{"/debug/trace/{id}", "one trace: spans, per-round convergence telemetry, attributes"},
	{"/debug/cache", "answer-space cache counters"},
	{"/debug/plans", "resident prepared plans, most recently used first"},
	{"/debug/admission", "admission controller snapshot (404 when admission is off)"},
	{"/debug/durability", "WAL/checkpoint picture (404 on memory-only servers)"},
	{"/debug/federation", "coordinator member health: passive stats + active probe (404 when not coordinating)"},
	{"/debug/pprof/", "net/http/pprof profile suite"},
}

// DebugHandler returns the operations mux served on the (loopback-only by
// default) debug address: the net/http/pprof suite under /debug/pprof/,
// the Prometheus scrape endpoint at /metrics, the trace ring under
// /debug/trace, and JSON snapshots of the cache/plan/admission/
// durability/federation state. It is deliberately a separate handler from the public
// API so profiling endpoints never face query traffic.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.HandleFunc("GET /debug/{$}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, debugIndex)
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.tracer.Summaries())
	})
	mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		td := s.tracer.Lookup(id)
		if td == nil {
			writeError(w, http.StatusNotFound, "unknown trace %q (evicted, unsampled, or never issued)", id)
			return
		}
		writeJSON(w, http.StatusOK, td)
	})
	mux.HandleFunc("GET /debug/cache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cacheSnapshot(s.eng))
	})
	mux.HandleFunc("GET /debug/plans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.plans.snapshot())
	})
	mux.HandleFunc("GET /debug/admission", func(w http.ResponseWriter, r *http.Request) {
		if s.adm == nil {
			writeError(w, http.StatusNotFound, "admission control is not configured")
			return
		}
		writeJSON(w, http.StatusOK, s.adm.Stats())
	})
	mux.HandleFunc("GET /debug/durability", func(w http.ResponseWriter, r *http.Request) {
		if s.dur == nil {
			writeError(w, http.StatusNotFound, "durability is not configured (start with -data-dir)")
			return
		}
		writeJSON(w, http.StatusOK, s.dur.Stats())
	})
	mux.HandleFunc("GET /debug/federation", s.handleDebugFederation)
	return mux
}
