// Command kgaqd serves approximate aggregate queries over HTTP/JSON: one
// engine, shared by all requests, exercised under real concurrency through
// the context-aware execution API.
//
//	kgaqd -profile tiny -addr :8080
//	kgaqd -graph data/dbpedia-sim.graph -emb data/dbpedia-sim.emb
//
//	curl -s localhost:8080/v1/query -H 'Content-Type: application/json' -d '{
//	  "query": "AVG(price) MATCH (g:Country name=Country_0)-[product]->(c:Automobile) TARGET c",
//	  "error_bound": 0.05, "timeout_ms": 2000
//	}'
//
// Per-request overrides (error_bound, confidence, tau, seed, max_draws,
// sampler, timeout_ms, min_epoch) map 1:1 onto the engine's QueryOptions;
// "stream": true switches the response to NDJSON with one line per
// refinement round, and "aggregates": [{"func":"COUNT"}, …] evaluates
// several aggregates over one shared sample. SIGINT/SIGTERM drain
// gracefully: in-flight queries are cancelled through their contexts and
// report partial results before the listener closes.
//
// Repeat traffic should prepare once and execute many times:
// POST /v1/prepare compiles a query into a cached plan (TTL/LRU, see
// -plan-cap / -plan-ttl) and returns its content-hash id;
// POST /v1/plans/{id}/query executes it — single-aggregate, streaming, or
// multi-aggregate — skipping resolution, convergence and the answer-space
// build. /debug/plans (on -debug-addr) lists the resident plans.
//
// The served graph is live by default: POST /v1/mutate applies atomic
// NDJSON mutation batches (add_entity, add_edge, remove_edge, set_attr,
// set_types) and returns the new epoch, which /v1/query's min_epoch turns
// into read-your-writes; a background compactor folds the write delta into
// a fresh immutable graph off the query path. -read-only disables all of
// it and serves the loaded graph immutably.
//
// With -data-dir the live graph is durable: every mutation batch is framed
// into an append-only WAL before the 200 (fsynced first under the default
// -wal-sync=always), a background checkpointer (-checkpoint-every) folds
// the state into an atomic snapshot and trims the WAL behind it, and boot
// recovers the newest valid checkpoint plus the WAL tail — a SIGKILL'd
// server restarts to exactly the last acknowledged epoch. healthz and
// /debug/durability (on -debug-addr) report the durability picture.
//
// Federation (DESIGN.md "Federation: remote strata"): every kgaqd is
// member-capable — POST /v1/federate/sample runs one stratum round against
// the local graph. Started with -federate-members (or
// -federate-members-file), kgaqd becomes a coordinator instead: /v1/query
// scatters across the listed members, merges their samples' moments through
// the stratified Horvitz–Thompson combiner, and refines with Neyman-allocated
// rounds until the global (eb, α) guarantee holds. -federate-timeout,
// -federate-retries and -federate-hedge-after tune the per-member RPC
// deadline, retry budget and tail-latency hedge; healthz gains a federation
// block and /debug/federation (on -debug-addr) probes the members.
//
// The debug listener (-debug-addr) is also the observability surface:
// GET /metrics serves every tier's counters, gauges and histograms in
// Prometheus text format, and each request's lifecycle trace — spans for
// resolve/convergence plus per-round draws, validation calls and the
// shrinking achieved error bound — lands in a bounded ring under
// /debug/trace (list) and /debug/trace/{id} (one trace, id echoed in the
// X-Trace-ID response header and the response body). -trace-ring bounds
// the ring; -trace-sample traces one request in N.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kgaq/internal/admission"
	"kgaq/internal/buildinfo"
	"kgaq/internal/cmdutil"
	"kgaq/internal/core"
	"kgaq/internal/federate"
	"kgaq/internal/httpapi"
	"kgaq/internal/live"
	"kgaq/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	graphPath := flag.String("graph", "", "graph snapshot or textual dump (formats auto-detected)")
	embPath := flag.String("emb", "", "embedding snapshot (from kgen)")
	profile := flag.String("profile", "", "generate a profile instead of loading files")
	eb := flag.Float64("eb", 0.01, "default relative error bound")
	conf := flag.Float64("conf", 0.95, "default confidence level")
	tau := flag.Float64("tau", 0, "default similarity threshold (0 = profile default / 0.85)")
	seed := flag.Int64("seed", 1, "default engine seed")
	grace := flag.Duration("grace", 5*time.Second, "shutdown grace period")
	cacheBytes := flag.Int64("cache-bytes", 0, "answer-space cache bound in bytes (0 = default, negative = disabled)")
	planCap := flag.Int("plan-cap", httpapi.DefaultPlanCap, "maximum cached prepared plans (LRU beyond)")
	planTTL := flag.Duration("plan-ttl", httpapi.DefaultPlanTTL, "prepared plans expire this long after their last use")
	debugAddr := flag.String("debug-addr", "", "serve pprof and cache counters on this address (e.g. localhost:6060; empty = disabled)")
	readOnly := flag.Bool("read-only", false, "disable /v1/mutate and serve the loaded graph immutably")
	dataDir := flag.String("data-dir", "", "durability root: mutation WAL + checkpoints; boot recovers the newest checkpoint and replays the WAL tail (empty = memory-only)")
	walSync := flag.String("wal-sync", "always", "WAL sync policy: always (fsync before ack), interval, none")
	walSyncEvery := flag.Duration("wal-sync-interval", 100*time.Millisecond, "background fsync period under -wal-sync=interval")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (0 = 64 MiB)")
	checkpointEvery := flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint interval; each checkpoint trims the WAL behind it (0 = only at shutdown)")
	compactEvery := flag.Duration("compact-interval", 2*time.Second, "background compactor check interval")
	compactMin := flag.Int("compact-min-delta", 256, "fold the mutation delta once it covers this many nodes")
	maxInFlight := flag.Int("max-inflight", 0, "concurrently executing requests (0 = 2×GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "requests waiting for a slot before fast 429 shedding (0 = 4×max-inflight)")
	clientRate := flag.Float64("client-rate", 0, "per-client request rate limit in req/s (0 = unlimited)")
	clientBurst := flag.Int("client-burst", 0, "per-client token-bucket burst (0 = ceil of -client-rate)")
	clientHeader := flag.String("client-header", httpapi.ClientIDHeader, "request header carrying the client identity for rate limiting")
	maxEB := flag.Float64("max-eb", 0.25, "honesty floor for graceful degradation: the loosest effective error bound the server may relax toward under pressure (0 = never degrade, shed instead)")
	degradePressure := flag.Float64("degrade-pressure", 0.5, "queue-fill fraction beyond which effective error bounds relax toward -max-eb")
	sloP99 := flag.Duration("slo-p99", 0, "serving latency objective: healthz reports slo_ok against this p99 (0 = no SLO)")
	accessLog := flag.Bool("access-log", true, "write one structured (JSON) access-log line per request to stderr")
	traceRing := flag.Int("trace-ring", 256, "finished query-lifecycle traces retained for /debug/trace (0 = default 256)")
	traceSample := flag.Int("trace-sample", 1, "trace one request in N (1 = every request, 0 = tracing off)")
	fedMembers := flag.String("federate-members", "", "coordinate a federation over these members: comma-separated [name=]http://host:port list; /v1/query scatters across them")
	fedMembersFile := flag.String("federate-members-file", "", "members config file (one \"url\" or \"name url\" per line, # comments); alternative to -federate-members")
	fedTimeout := flag.Duration("federate-timeout", 10*time.Second, "per-member, per-attempt deadline of one scatter RPC")
	fedRetries := flag.Int("federate-retries", 2, "additional attempts after a failed member RPC before the member counts as dead for the query")
	fedHedge := flag.Duration("federate-hedge-after", 400*time.Millisecond, "re-issue a still-unanswered member RPC after this long, first answer wins (negative = no hedging)")
	version := flag.Bool("version", false, "print build provenance and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get("kgaqd"))
		return
	}
	buildinfo.Register("kgaqd")

	g, model, epoch, err := cmdutil.LoadGraphModel(*graphPath, *embPath, *profile, tau)
	if err != nil {
		fail("%v", err)
	}
	opts := core.Options{
		ErrorBound: *eb, Confidence: *conf, Tau: *tau, Seed: *seed,
		CacheMaxBytes: *cacheBytes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var api *httpapi.Server
	var dur *live.Durable
	if *readOnly {
		eng, err := core.NewEngine(g, model, opts)
		if err != nil {
			fail("%v", err)
		}
		api = httpapi.NewServer(eng)
	} else {
		var store *live.Store
		if *dataDir != "" {
			policy, err := wal.ParseSyncPolicy(*walSync)
			if err != nil {
				fail("%v", err)
			}
			d, err := live.Recover(live.DurabilityConfig{
				Dir:             *dataDir,
				Sync:            policy,
				SyncInterval:    *walSyncEvery,
				SegmentBytes:    *walSegBytes,
				CheckpointEvery: *checkpointEvery,
				OnError:         func(err error) { fmt.Fprintf(os.Stderr, "kgaqd: durability: %v\n", err) },
			}, g, epoch)
			if err != nil {
				fail("recover %s: %v", *dataDir, err)
			}
			rec := d.Stats().Recovery
			fmt.Fprintf(os.Stderr, "kgaqd: recovered %s: checkpoint epoch %d, %d replayed, epoch %d\n",
				*dataDir, rec.CheckpointEpoch, rec.Replayed, d.Store().Epoch())
			if *checkpointEvery > 0 {
				defer d.StartCheckpointer(ctx)()
			}
			dur = d
			store = d.Store()
		} else {
			store = live.NewStore(g, epoch)
		}
		eng, err := core.NewLiveEngine(store, model, opts)
		if err != nil {
			fail("%v", err)
		}
		stopCompactor := store.StartCompactor(ctx, live.CompactorConfig{
			Interval: *compactEvery,
			MinDelta: *compactMin,
			OnError:  func(err error) { fmt.Fprintf(os.Stderr, "kgaqd: compactor: %v\n", err) },
		})
		defer stopCompactor()
		api = httpapi.NewLiveServer(eng, store)
		if dur != nil {
			api.ConfigureDurability(dur)
		}
	}
	api.ConfigurePlans(*planCap, *planTTL)
	api.ConfigureTracing(*traceRing, *traceSample)
	ctrl := admission.New(admission.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *queueDepth,
		PerClientRate:   *clientRate,
		PerClientBurst:  *clientBurst,
		DegradePressure: *degradePressure,
		MaxErrorBound:   *maxEB,
		SLOTargetP99:    *sloP99,
	})
	api.ConfigureAdmission(ctrl, *clientHeader)
	api.ConfigureBuild(buildinfo.Get("kgaqd"))
	if *fedMembers != "" || *fedMembersFile != "" {
		if *fedMembers != "" && *fedMembersFile != "" {
			fail("-federate-members and -federate-members-file are mutually exclusive")
		}
		var members []federate.Member
		if *fedMembers != "" {
			members, err = federate.ParseMembers(*fedMembers)
		} else {
			var data []byte
			if data, err = os.ReadFile(*fedMembersFile); err == nil {
				members, err = federate.ReadMembersFile(string(data))
			}
		}
		if err != nil {
			fail("%v", err)
		}
		coord, err := federate.New(federate.Config{
			Members:       members,
			MemberTimeout: *fedTimeout,
			Retries:       *fedRetries,
			HedgeAfter:    *fedHedge,
		}, opts)
		if err != nil {
			fail("%v", err)
		}
		api.ConfigureFederation(coord)
		fmt.Fprintf(os.Stderr, "kgaqd: coordinating a federation of %d member(s)\n", len(members))
	}
	if *accessLog {
		api.ConfigureLogging(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}
	if *debugAddr != "" {
		// The debug mux (pprof, /metrics, /debug/trace, state snapshots)
		// lives on its own listener so operational endpoints never share a
		// port with query traffic.
		dbg := &http.Server{Addr: *debugAddr, Handler: api.DebugHandler()}
		go func() {
			fmt.Fprintf(os.Stderr, "kgaqd: debug endpoints on %s\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "kgaqd: debug server: %v\n", err)
			}
		}()
		defer dbg.Close()
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: api.Handler(),
		// Request contexts descend from the signal context, so a drain
		// cancels in-flight queries mid-refinement.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	done := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "kgaqd: serving %s on %s\n", g, *addr)
		done <- srv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "kgaqd: draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Admission drains first — queued requests shed with 503 "draining"
		// and in-flight ones finish — then the listener closes.
		if err := api.Drain(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "kgaqd: drain: %v\n", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fail("shutdown: %v", err)
		}
		<-done
		// Last: sync the WAL and fold the final state into a checkpoint so
		// the next boot replays nothing.
		if dur != nil {
			if err := dur.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "kgaqd: durability close: %v\n", err)
			}
		}
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kgaqd: "+format+"\n", args...)
	os.Exit(1)
}
