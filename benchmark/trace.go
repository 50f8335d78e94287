package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"kgaq"
	"kgaq/internal/admission"
	"kgaq/internal/core"
	"kgaq/internal/estimate"
	"kgaq/internal/httpapi"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/shard"
	"kgaq/internal/wal"
	"kgaq/internal/walk"
)

// span is one timed interval of the traced stage. Spans are recorded by
// the benchmark around its calls into each layer's public functions; spans
// inside kgaqd are a later change.
type span struct {
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Parent  int                `json:"parent"` // index into the dump, -1 for a root
	TraceID int                `json:"trace_id"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. Off, begin and end
// cost one branch, which is what the untraced replay measures against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, trace int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNS: time.Since(r.t0).Nanoseconds(), Parent: parent, TraceID: trace})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].EndNS = time.Since(r.t0).Nanoseconds()
	}
}

func (r *recorder) attr(i int, k string, v float64) {
	if i < 0 {
		return
	}
	if r.spans[i].Attrs == nil {
		r.spans[i].Attrs = map[string]float64{}
	}
	r.spans[i].Attrs[k] = v
}

func (r *recorder) ms(i int) float64 { return float64(r.spans[i].EndNS-r.spans[i].StartNS) / 1e6 }

const (
	probeReps   = 5
	replayBlock = 10 // operations an arm of the replay runs per turn
)

// sized scales a probe's repetition count with -scale on a fixed-count
// run, so that the 1/50-size test run is 1/50 of the work throughout.
func (e *env) sized(full int) int {
	if e.cfg.Seconds > 0 {
		return full
	}
	return max(2, int(float64(full)*e.cfg.Scale))
}

// engineOptions mirrors kgaqd's flag defaults.
func engineOptions(cacheBytes int64) core.Options {
	return core.Options{ErrorBound: 0.01, Confidence: 0.95, Tau: tau, Seed: 1, CacheMaxBytes: cacheBytes, Shards: 1}
}

// execOpts are the per-request overrides every benchmark request carries.
func execOpts(seed int64) []core.QueryOption {
	return []core.QueryOption{core.WithErrorBound(errorBound), core.WithSeed(seed)}
}

// layerStage is the -trace 1 half that runs in-process and single-threaded:
// a traced and an untraced replay of the workload's own request sequence
// through library calls, then isolated probes of each layer on inputs
// taken from those requests.
func (e *env) layerStage(m *metrics) error {
	ctx := context.Background()
	d := e.data[0]
	g, model := d.ds.Graph, d.ds.Model

	// kg: the snapshot kgaqd boots from.
	var loads []float64
	for i := 0; i < probeReps; i++ {
		begin := time.Now()
		if _, err := kgaq.LoadGraphSnapshot(d.graphPath); err != nil {
			return err
		}
		loads = append(loads, msSince(begin))
	}
	m.set("kg.snapshot_load_ms", median(loads), "ms")
	if info, err := os.Stat(d.graphPath); err == nil {
		m.exact("kg.snapshot_bytes", float64(info.Size()), "bytes")
	}

	// Prepare probe: a fresh cached engine sees every distinct query twice;
	// PlanInfo.CacheBuilt splits compilations into misses and hits. The
	// first pass also executes each plan, as kgaqd's warm-up does, so the
	// engine enters the replay with its validation verdicts cached.
	warm, err := core.NewEngine(g, model, engineOptions(0))
	if err != nil {
		return err
	}
	var hit, miss []float64
	for pass := 0; pass < 2; pass++ {
		for i, r := range d.all {
			begin := time.Now()
			p, err := warm.Prepare(ctx, r.agg, execOpts(opSeed(e.cfg.Seed, -5000-i))...)
			if err != nil {
				return fmt.Errorf("prepare %s: %w", r.text, err)
			}
			if ms := msSince(begin); p.Plan().CacheBuilt == 0 {
				hit = append(hit, ms)
			} else {
				miss = append(miss, ms)
			}
			if pass == 0 {
				if _, err := p.Query(ctx); err != nil {
					return fmt.Errorf("warm %s: %w", r.text, err)
				}
			}
		}
	}
	m.setN("core.prepare_hit_ms", median(hit), "ms", len(hit))
	m.setN("core.prepare_miss_ms", median(miss), "ms", len(miss))

	// Replay in the workload's own cache regime. Two arms run the same
	// sequence, one with the recorder on; the static workloads' arms share
	// the engine, churn's apply the writes to a store each.
	eng := warm
	if e.wl.cacheOff {
		if eng, err = core.NewEngine(g, model, engineOptions(-1)); err != nil {
			return err
		}
	}
	gen := staticGen(e.list, e.cfg.Seed, 1)
	if e.wl.churn {
		gen = churnGen(e.list, rootsOf(byCategory(e.list, "simple")), e.cfg.Seed, 1)
	}
	t0 := time.Now()
	var arms [2]*replay // untraced, traced
	for i := range arms {
		rp := &replay{eng: eng, gen: gen, rec: &recorder{on: i == 1, t0: t0}}
		if e.wl.churn {
			rp.store = live.NewStore(g, 0)
			if rp.eng, err = core.NewLiveEngine(rp.store, model, engineOptions(0)); err != nil {
				return err
			}
		}
		arms[i] = rp
	}
	// The arms take turns block by block and alternate which goes first, so
	// that neither always runs on what the other left warm. A -seconds run
	// starts no block after two fifths of the run.
	n := e.sized(e.wl.tracedOps)
	budget := time.Duration(e.cfg.Seconds) * time.Second * 2 / 5
	for b := 0; b*replayBlock < n; b++ {
		if budget > 0 && time.Since(t0) > budget {
			break
		}
		from, to := b*replayBlock, min((b+1)*replayBlock, n)
		if err := arms[b%2].run(ctx, from, to); err != nil {
			return err
		}
		if err := arms[1-b%2].run(ctx, from, to); err != nil {
			return err
		}
	}
	rp := arms[1]
	if len(rp.lat) == 0 {
		return fmt.Errorf("traced replay ran no request")
	}
	// Both arms ran the same (query, seed) requests, so the ratio is taken
	// per request and the spread of request costs cancels. Whoever goes
	// second in a block finds the caches warm: the median ratio of the blocks
	// the traced arm opened and that of the blocks it closed are combined by
	// their geometric mean, in which that advantage cancels.
	var opened, closed []float64
	for i := range rp.lat {
		ratio := rp.lat[i] / arms[0].lat[i]
		if rp.block[i]%2 == 1 {
			opened = append(opened, ratio)
		} else {
			closed = append(closed, ratio)
		}
	}
	overhead := median(closed) - 1 // a replay of a single block
	if len(opened) > 0 {
		overhead = math.Sqrt(median(opened)*median(closed)) - 1
	}
	m.setN("bench.trace_overhead_share", overhead, "ratio", len(rp.lat))
	rp.report(m)

	if err := e.handlerOverhead(ctx, m, warm); err != nil {
		return err
	}
	if err := probeCore(ctx, m, e, warm); err != nil {
		return err
	}
	if err := probeWalkSemsimShard(ctx, m, e); err != nil {
		return err
	}
	if err := probeEstimate(ctx, m, e, warm, rp.medianDraws()); err != nil {
		return err
	}
	if err := probeLiveWAL(m, e); err != nil {
		return err
	}
	probeAdmission(ctx, m)

	dump := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-%s-seed%d.json", e.wl.name, e.cfg.Seed))
	data, err := json.Marshal(rp.rec.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(dump, data, 0o644)
}

// replay runs the measured request sequence through library calls on one
// goroutine: request → query.parse → core.prepare → core.execute.
type replay struct {
	eng   *core.Engine
	store *live.Store // churn only
	gen   generator
	rec   *recorder
	last  uint64    // epoch of the newest write applied
	lat   []float64 // each request's wall time in ms
	block []int     // and the block it ran in

	// Filled by the traced arm.
	requests               []int // span index of each request root
	rounds, draws, correct float64
	singles                int
	execMS                 []float64
	perDraws               []float64
	prepareNS, totalNS     float64
	sampling, validation   float64
	guarantee              float64
}

// run replays operations from..to-1 of the sequence.
func (rp *replay) run(ctx context.Context, from, to int) error {
	for i := from; i < to; i++ {
		o := rp.gen(0, i, rp.last)
		if o.mutate {
			batch, err := decodeBatch(o.body)
			if err != nil {
				return err
			}
			snap, err := rp.store.Apply(batch)
			if err != nil {
				return err
			}
			rp.last = snap.Epoch()
			continue
		}
		var body struct {
			Query string `json:"query"`
			Seed  int64  `json:"seed"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil {
			return err
		}
		t0 := time.Now()
		root := rp.rec.begin("request", -1, i)

		sp := rp.rec.begin("query.parse", root, i)
		agg, err := query.Parse(body.Query)
		rp.rec.end(sp)
		if err != nil {
			return err
		}

		sp = rp.rec.begin("core.prepare", root, i)
		opts := execOpts(body.Seed)
		if o.minEpoch > 0 {
			opts = append(opts, core.WithMinEpoch(o.minEpoch))
		}
		p, err := rp.eng.Prepare(ctx, agg, opts...)
		rp.rec.end(sp)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", body.Query, err)
		}
		prep := sp

		sp = rp.rec.begin("core.execute", root, i)
		var times core.StepTimes
		if o.req.multi != nil {
			mr, err := p.QueryMulti(ctx, aggSpecs(o.req))
			rp.rec.end(sp)
			if err != nil {
				return fmt.Errorf("execute multi %s: %w", body.Query, err)
			}
			times = mr.Times
		} else {
			r, err := p.Query(ctx)
			rp.rec.end(sp)
			if err != nil {
				return fmt.Errorf("execute %s: %w", body.Query, err)
			}
			times = r.Times
			if rp.rec.on {
				rp.rec.attr(sp, "rounds", float64(len(r.Rounds)))
				rp.rec.attr(sp, "draws", float64(r.SampleSize))
				rp.rec.attr(sp, "correct", float64(r.Correct))
				rp.singles++
				rp.rounds += float64(len(r.Rounds))
				rp.draws += float64(r.SampleSize)
				rp.correct += float64(r.Correct)
				rp.perDraws = append(rp.perDraws, float64(r.SampleSize))
				if !o.req.grouped() {
					rp.execMS = append(rp.execMS, rp.rec.ms(sp))
				}
			}
		}
		rp.rec.end(root)
		rp.lat = append(rp.lat, msSince(t0))
		rp.block = append(rp.block, from/replayBlock)
		if rp.rec.on {
			rp.requests = append(rp.requests, root)
			prepNS := float64(rp.rec.spans[prep].EndNS - rp.rec.spans[prep].StartNS)
			rp.prepareNS += prepNS
			rp.sampling += float64(times.Sampling)
			rp.validation += float64(times.Estimation)
			rp.guarantee += float64(times.Guarantee)
			rp.totalNS += prepNS + float64(times.Total())
		}
	}
	return nil
}

func (rp *replay) medianDraws() int { return int(median(rp.perDraws)) }

// report turns the traced arm into the core and query metrics.
func (rp *replay) report(m *metrics) {
	var parse []float64
	var self, whole float64
	covered := map[int]int64{}
	for _, s := range rp.rec.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
		if s.Name == "query.parse" {
			parse = append(parse, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	for _, i := range rp.requests {
		s := rp.rec.spans[i]
		whole += float64(s.EndNS - s.StartNS)
		self += float64(s.EndNS - s.StartNS - covered[i])
	}
	m.setN("query.parse_us", median(parse), "us", len(parse))
	m.setN("core.execute_ms", median(rp.execMS), "ms", len(rp.execMS))
	n := float64(max(rp.singles, 1))
	m.exact("core.rounds_per_query", rp.rounds/n, "count")
	m.exact("core.draws_per_query", rp.draws/n, "count")
	m.exact("core.correct_share", rp.correct/max(rp.draws, 1), "ratio")
	// Program-reported step times (Result.Times) plus the benchmark's own
	// prepare span, which is sampling work (scope, convergence, alias).
	m.set("core.sampling_share", (rp.prepareNS+rp.sampling)/rp.totalNS, "ratio")
	m.set("core.validation_share", rp.validation/rp.totalNS, "ratio")
	m.set("core.guarantee_share", rp.guarantee/rp.totalNS, "ratio")
	m.set("core.unattributed_share", self/whole, "ratio")
}

// aggSpecs is a multi request's aggregate list in the engine's form.
func aggSpecs(r *distinct) []core.AggSpec {
	specs := make([]core.AggSpec, len(r.multi))
	for k, key := range r.multi {
		specs[k] = core.AggSpec{Func: key.fn, Attr: key.attr}
	}
	return specs
}

func decodeBatch(ndjson []byte) (live.Batch, error) {
	var batch live.Batch
	dec := json.NewDecoder(bytes.NewReader(ndjson))
	for dec.More() {
		var mu live.Mutation
		if err := dec.Decode(&mu); err != nil {
			return nil, err
		}
		batch = append(batch, mu)
	}
	return batch, nil
}

// handlerOverhead sends requests through Server.Handler() configured like
// kgaqd and subtracts the library time of the same (query, seed).
func (e *env) handlerOverhead(ctx context.Context, m *metrics, eng *core.Engine) error {
	api := httpapi.NewServer(eng)
	api.ConfigurePlans(httpapi.DefaultPlanCap, httpapi.DefaultPlanTTL)
	api.ConfigureTracing(256, 1)
	api.ConfigureAdmission(admission.New(admission.Config{DegradePressure: 0.5, MaxErrorBound: 0.25}), httpapi.ClientIDHeader)
	h := api.Handler()
	list := ungrouped(e.data[0].all)
	var over []float64
	for i := 0; i < e.sized(100); i++ {
		r, seed := list[i%len(list)], opSeed(e.cfg.Seed, -7000-i)
		library := func() (float64, error) {
			begin := time.Now()
			agg, err := query.Parse(r.text)
			if err != nil {
				return 0, err
			}
			p, err := eng.Prepare(ctx, agg, execOpts(seed)...)
			if err != nil {
				return 0, err
			}
			_, err = p.Query(ctx)
			return msSince(begin), err
		}
		handler := func() (float64, error) {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(queryBody(r, seed, 0)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			begin := time.Now()
			h.ServeHTTP(rec, req)
			ms := msSince(begin)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler %s: status %d: %.200s", r.text, rec.Code, rec.Body.String())
			}
			return ms, nil
		}
		// Both sides run the same (query, seed); alternating which goes
		// first cancels what the first leaves warm for the second.
		first, second := library, handler
		if i%2 == 1 {
			first, second = handler, library
		}
		a, err := first()
		if err != nil {
			return err
		}
		b, err := second()
		if err != nil {
			return err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		over = append(over, b-a)
	}
	m.setN("httpapi.handler_overhead_ms", median(over), "ms", len(over))
	return nil
}

func probeAdmission(ctx context.Context, m *metrics) {
	ctrl := admission.New(admission.Config{})
	const n = 20000
	begin := time.Now()
	for i := 0; i < n; i++ {
		if g, err := ctrl.Admit(ctx, "bench"); err == nil {
			g.Release(time.Microsecond, admission.OutcomeOK)
		}
	}
	m.set("admission.admit_release_ns", float64(time.Since(begin).Nanoseconds())/n, "ns")
}

// probeCore measures grouped execution, multi against single aggregates
// and 8 shards against 1, all on warm plans.
func probeCore(ctx context.Context, m *metrics, e *env, eng *core.Engine) error {
	d := e.data[0]
	timed := func(p *core.Prepared, run func(*core.Prepared) (int, error)) (float64, int, error) {
		begin := time.Now()
		draws, err := run(p)
		return msSince(begin), draws, err
	}
	single := func(p *core.Prepared) (int, error) {
		r, err := p.Query(ctx)
		if err != nil {
			return 0, err
		}
		return r.SampleSize, nil
	}

	var grouped []float64
	for rep := 0; rep < 3; rep++ {
		for i, r := range byCategory(d.all, "groupby") {
			p, err := eng.Prepare(ctx, r.agg, execOpts(opSeed(e.cfg.Seed, -8000-10*i-rep))...)
			if err != nil {
				return err
			}
			ms, _, err := timed(p, single)
			if err != nil {
				return err
			}
			grouped = append(grouped, ms)
		}
	}
	m.setN("core.grouped_execute_ms", median(grouped), "ms", len(grouped))

	var multiMS, singleMS, multiDraws, singleDraws float64
	for i, r := range d.multis[:min(len(d.multis), e.sized(len(d.multis)))] {
		opts := execOpts(opSeed(e.cfg.Seed, -9000-i))
		p, err := eng.Prepare(ctx, r.agg, opts...)
		if err != nil {
			return err
		}
		ms, draws, err := timed(p, single)
		if err != nil {
			return err
		}
		singleMS, singleDraws = singleMS+ms, singleDraws+float64(draws)
		ms, draws, err = timed(p, func(p *core.Prepared) (int, error) {
			mr, err := p.QueryMulti(ctx, aggSpecs(r))
			if err != nil {
				return 0, err
			}
			return mr.SampleSize, nil
		})
		if err != nil {
			return err
		}
		multiMS, multiDraws = multiMS+ms, multiDraws+float64(draws)
	}
	m.set("core.multi_vs_single_time", multiMS/singleMS, "ratio")
	m.exact("core.multi_vs_single_draws", multiDraws/singleDraws, "ratio")

	var one, eight float64
	for i, r := range ungrouped(d.all) {
		if i >= e.sized(40) {
			break
		}
		opts := execOpts(opSeed(e.cfg.Seed, -10000-i))
		for _, shards := range []int{1, 8} {
			p, err := eng.Prepare(ctx, r.agg, append(opts, core.WithShards(shards))...)
			if err != nil {
				return err
			}
			ms, _, err := timed(p, single)
			if err != nil {
				return err
			}
			if shards == 1 {
				one += ms
			} else {
				eight += ms
			}
		}
	}
	m.set("core.shards8_vs_1_time", eight/one, "ratio")
	return nil
}

// probeWalkSemsimShard builds, per distinct (root, predicate) first hop of
// the request list, the walker, its answer distribution, the validation of
// its whole candidate set and its 8-way split.
func probeWalkSemsimShard(ctx context.Context, m *metrics, e *env) error {
	d := e.data[0]
	g, model := d.ds.Graph, d.ds.Model
	var calcMS []float64
	var calc *semsim.Calculator
	for i := 0; i < probeReps; i++ {
		begin := time.Now()
		c, err := semsim.NewCalculator(g, model, 0)
		if err != nil {
			return err
		}
		calcMS = append(calcMS, msSince(begin))
		calc = c
	}
	m.set("semsim.calculator_build_ms", median(calcMS), "ms")

	type hopKey struct {
		root kg.NodeID
		pred kg.PredID
	}
	seen := map[hopKey]bool{}
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	const drawsPerDist = 20000
	var buildMS, drawNS, validateUS, splitUS []float64
	var scope, iters, answers, expansions, fallbacks float64
	for _, r := range e.list {
		paths, err := r.agg.Q.Decompose()
		if err != nil {
			return err
		}
		for _, p := range paths {
			root, pred := g.NodeByName(p.RootName), g.PredByName(p.Hops[0].Predicate)
			if root == kg.InvalidNode || pred == kg.InvalidPred || seen[hopKey{root, pred}] {
				continue
			}
			seen[hopKey{root, pred}] = true
			types := typeIDs(g, p.Hops[0].Types)
			begin := time.Now()
			w, err := walk.New(g, calc, root, pred, walk.Config{N: hopBound})
			if err != nil {
				return err
			}
			it, err := w.ConvergeCtx(ctx)
			if err != nil {
				return err
			}
			dist, err := w.AnswerDistribution(types)
			if err != nil {
				continue // a first hop without typed candidates: nothing to draw
			}
			buildMS = append(buildMS, msSince(begin))
			scope, iters = scope+float64(w.Size()), iters+float64(it)

			begin = time.Now()
			dist.Sample(rng, drawsPerDist)
			drawNS = append(drawNS, float64(time.Since(begin).Nanoseconds())/drawsPerDist)

			begin = time.Now()
			_, st := semsim.ValidateCtx(ctx, g, calc, root, pred, w.PiMap(), dist.Answers, semsim.ValidatorConfig{Tau: tau, MaxLen: hopBound})
			validateUS = append(validateUS, float64(time.Since(begin).Microseconds())/float64(dist.Len()))
			answers += float64(dist.Len())
			expansions += float64(st.Expansions)
			fallbacks += float64(st.Fallbacks)

			begin = time.Now()
			if _, err := shard.SplitSpace(shard.NewPlan(8), dist.Answers, dist.Probs); err != nil {
				return err
			}
			splitUS = append(splitUS, float64(time.Since(begin).Nanoseconds())/1e3)
		}
	}
	n := float64(max(len(buildMS), 1))
	m.setN("walk.build_converge_ms", median(buildMS), "ms", len(buildMS))
	m.exact("walk.scope_nodes", scope/n, "count")
	m.exact("walk.converge_iters", iters/n, "count")
	m.set("walk.draw_ns", median(drawNS), "ns")
	m.set("semsim.validate_us_per_answer", median(validateUS), "us")
	m.exact("semsim.expansions_per_answer", expansions/max(answers, 1), "count")
	m.exact("semsim.fallback_share", fallbacks/max(answers, 1), "ratio")
	m.set("shard.split_space_us", median(splitUS), "us")
	return nil
}

// probeEstimate times the estimators on real observation sets of the size
// a typical query of this workload draws.
func probeEstimate(ctx context.Context, m *metrics, e *env, eng *core.Engine, draws int) error {
	cfg := estimate.GuaranteeConfig{Confidence: 0.95}
	pol := eng.Options().Policy
	var htNS, blbUS, closedUS, width []float64
	for i, r := range ungrouped(e.data[0].all) {
		if i >= e.sized(24) {
			break
		}
		seed := opSeed(e.cfg.Seed, -11000-i)
		ms, err := eng.FederateSample(ctx, r.agg, max(draws, 30), false, core.WithSeed(seed))
		if err != nil {
			return err
		}
		fn := r.agg.Func
		begin := time.Now()
		if _, err := estimate.Estimate(fn, ms.Obs, pol); err != nil {
			continue // no correct draw in this set: nothing to estimate
		}
		htNS = append(htNS, float64(time.Since(begin).Nanoseconds())/float64(len(ms.Obs)))

		begin = time.Now()
		blb, err := estimate.MoESeeded(fn, ms.Obs, pol, cfg, seed)
		if err != nil {
			continue
		}
		blbUS = append(blbUS, float64(time.Since(begin).Nanoseconds())/1e3)

		begin = time.Now()
		closed, err := estimate.MoEStratified(fn, []estimate.Stratum{{Weight: 1, Obs: ms.Obs}}, pol, cfg)
		if err != nil {
			continue
		}
		closedUS = append(closedUS, float64(time.Since(begin).Nanoseconds())/1e3)
		if closed > 0 {
			width = append(width, blb/closed)
		}
	}
	m.set("estimate.ht_ns_per_obs", median(htNS), "ns")
	m.set("estimate.moe_blb_us", median(blbUS), "us")
	m.set("estimate.moe_closed_form_us", median(closedUS), "us")
	m.set("estimate.moe_blb_vs_closed_time", median(blbUS)/median(closedUS), "ratio")
	m.set("estimate.moe_blb_vs_closed_width", median(width), "ratio")

	strata := make([]estimate.StratumStats, 8)
	for i := range strata {
		strata[i] = estimate.StratumStats{Weight: 1.0 / 8, Sigma: float64(1 + i)}
	}
	dst := make([]int, 8)
	const n = 20000
	begin := time.Now()
	for i := 0; i < n; i++ {
		dst = estimate.AllocateDrawsInto(dst, 1000+i%7, strata)
	}
	m.set("estimate.allocate_draws_ns", float64(time.Since(begin).Nanoseconds())/n, "ns")
	return nil
}

// probeLiveWAL times a memory-only Apply of the churn batch, a compaction
// of a 256-node delta, and a sync-always WAL append of that batch's size.
func probeLiveWAL(m *metrics, e *env) error {
	g := e.data[0].ds.Graph
	roots := rootsOf(byCategory(e.data[0].all, "simple"))
	next := 0
	batch := func() ([]byte, live.Batch, error) {
		body, _ := mutationBatch(e.cfg.Seed, 9, next, roots[next%len(roots)])
		next++
		b, err := decodeBatch(body)
		return body, b, err
	}

	var applyUS, compactMS []float64
	for rep := 0; rep < 3; rep++ {
		store := live.NewStore(g, 0)
		for store.Snapshot().DeltaSize() < 256 {
			_, b, err := batch()
			if err != nil {
				return err
			}
			begin := time.Now()
			if _, err := store.Apply(b); err != nil {
				return err
			}
			applyUS = append(applyUS, float64(time.Since(begin).Nanoseconds())/1e3)
		}
		begin := time.Now()
		if _, err := store.Compact(); err != nil {
			return err
		}
		compactMS = append(compactMS, msSince(begin))
	}
	m.setN("live.apply_us", median(applyUS), "us", len(applyUS))
	m.set("live.compact_ms", median(compactMS), "ms")

	l, err := wal.Open(filepath.Join(e.work, "wal-probe"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer l.Close()
	if _, err := l.Replay(0, nil); err != nil {
		return err
	}
	var appendUS []float64
	for epoch := uint64(1); epoch <= uint64(e.sized(100)); epoch++ {
		_, b, err := batch()
		if err != nil {
			return err
		}
		payload, err := json.Marshal(b)
		if err != nil {
			return err
		}
		begin := time.Now()
		if err := l.Append(epoch, payload); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(time.Since(begin).Nanoseconds())/1e3)
	}
	m.setN("wal.append_sync_us", median(appendUS), "us", len(appendUS))
	return nil
}
