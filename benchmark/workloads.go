package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kgaq/internal/query"
)

// workload is one row of the README's workload table.
type workload struct {
	name string
	// members is how many kgaqd serve data: 1, or 3 behind a coordinator.
	members int
	// args are the kgaqd flags beyond -graph/-emb/-tau/-access-log.
	args func(e *env) []string
	// list picks the measured request list from member 0's dataset.
	list func(d *dataset) []*distinct
	// warmAll warms every distinct request once inside setup_s; otherwise
	// set-up sends one request per connection.
	warmAll bool
	churn   bool
	// cacheOff serves with the answer-space cache disabled: any hit is a
	// finding. minHitRate, when set, is the measured-phase hit rate below
	// which the workload is mis-sized for the cache.
	cacheOff   bool
	minHitRate float64
	// fullOps and tracedOps size the reference run (-seconds 0): the
	// measured phase and the in-process traced replay.
	fullOps   int
	tracedOps int
	// setups is how many times a -trace 0 run boots and warms the system;
	// setup_s is their median and the last one serves the measured phase.
	// A 50 ms set-up is repeated more often than a 6 s one.
	setups int
}

var workloads = []workload{
	{
		name: "hot_repeat", members: 1, warmAll: true, minHitRate: 0.98, fullOps: 3000, tracedOps: 600, setups: 3,
		args: func(*env) []string { return nil },
		list: func(d *dataset) []*distinct { return append(append([]*distinct{}, d.all...), d.multis...) },
	},
	{
		name: "cold_compile", members: 1, cacheOff: true, fullOps: 500, tracedOps: 200, setups: 7,
		args: func(*env) []string { return []string{"-cache-bytes", "-1"} },
		list: func(d *dataset) []*distinct { return d.all },
	},
	{
		name: "churn_durable", members: 1, warmAll: true, churn: true, fullOps: 1600, tracedOps: 400, setups: 7,
		args: func(e *env) []string { return []string{"-data-dir", e.dataDir, "-wal-sync", "always"} },
		list: func(d *dataset) []*distinct { return ungrouped(byCategory(d.all, "simple", "filter")) },
	},
	{
		name: "federated_scatter", members: 3, warmAll: true, fullOps: 800, tracedOps: 300, setups: 2,
		args: func(*env) []string { return nil },
		list: func(d *dataset) []*distinct {
			return ungrouped(byCategory(d.all, "simple", "filter", "chain", "star", "cycle"))
		},
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// env is the state of one workload run.
type env struct {
	cfg     config
	wl      workload
	bin     string
	work    string // per-run temp dir, removed at the end
	dataDir string // churn's -data-dir, fresh per boot
	data    []*dataset
	list    []*distinct
	servers []*proc // data-serving kgaqd, member 0 first
	coord   *proc   // federation coordinator, nil otherwise
	boots   int
}

func (e *env) target() string {
	if e.coord != nil {
		return e.coord.addr
	}
	return e.servers[0].addr
}

func (e *env) all() []*proc {
	if e.coord != nil {
		return append(append([]*proc{}, e.servers...), e.coord)
	}
	return e.servers
}

// boot starts every process of the workload and returns once all answer
// healthz.
func (e *env) boot() error {
	e.boots++
	e.dataDir = filepath.Join(e.work, fmt.Sprintf("data-%d", e.boots))
	e.servers, e.coord = nil, nil
	var urls []string
	for i := 0; i < e.wl.members; i++ {
		d := e.data[i]
		args := append([]string{"-graph", d.graphPath, "-emb", d.embPath, "-tau", fmt.Sprint(tau), "-access-log=false"}, e.wl.args(e)...)
		p, err := startKgaqd(e.bin, e.work, args...)
		if err != nil {
			return err
		}
		e.servers = append(e.servers, p)
		urls = append(urls, "http://"+p.addr)
	}
	if e.wl.members > 1 {
		d := e.data[0]
		p, err := startKgaqd(e.bin, e.work, "-graph", d.graphPath, "-emb", d.embPath, "-tau", fmt.Sprint(tau),
			"-access-log=false", "-federate-members", strings.Join(urls, ","))
		if err != nil {
			return err
		}
		e.coord = p
	}
	return nil
}

func (e *env) shutdown() {
	for _, p := range e.all() {
		p.kill()
	}
}

// warm sends the set-up requests through the same closed loop as the
// measured phase; a failure here fails the run.
func (e *env) warm() error {
	list := e.list
	if !e.wl.warmAll {
		list = list[:min(len(list), warmConns)]
	}
	gen := func(c, j int, _ uint64) op {
		i := j*warmConns + c
		// Seeds below the measured range: warm-up never pre-executes a
		// measured (query, seed) pair.
		return op{req: list[i], body: queryBody(list[i], opSeed(e.cfg.Seed, -2-i), 0)}
	}
	samples, _ := runLoad(e.target(), warmConns, gen, len(list), 0)
	for _, s := range samples {
		if s.fail != "" {
			return fmt.Errorf("warm-up %s: %s", s.req.text, s.fail)
		}
	}
	return nil
}

// warmConns is how many connections share the warm-up pass: priming is
// set-up work, done as fast as the box allows, not a latency measurement.
const warmConns = 2

// minSamples is the least number of query latencies query_p95_ms may rest
// on (10 beyond the percentile). A -seconds run whose deadline comes sooner
// keeps going until it has them.
const minSamples = 200

func runWorkload(cfg config, bin string) (res *result, err error) {
	var wl workload
	for _, w := range workloads {
		if w.name == cfg.Workload {
			wl = w
		}
	}
	e := &env{cfg: cfg, wl: wl, bin: bin}
	if e.work, err = os.MkdirTemp(cfg.Out, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	defer e.shutdown()

	for i := 0; i < wl.members; i++ {
		d, err := makeDataset(cfg.Profile, cfg.Graph+int64(1000*i), e.work, fmt.Sprintf("member%d", i))
		if err != nil {
			return nil, err
		}
		e.data = append(e.data, d)
	}
	e.list = wl.list(e.data[0])
	if len(e.list) == 0 {
		return nil, fmt.Errorf("empty request list")
	}
	if wl.members > 1 {
		if e.list, err = federatedTruth(e.list, e.data); err != nil {
			return nil, err
		}
	}

	m := newMetrics()
	res = &result{Workload: wl.name, Metrics: m.byName}

	// Set-up, repeated: first exec → every process healthy and warm.
	repeats := wl.setups
	if cfg.Trace {
		repeats = 1 // the traced stage and the probes need the time
	}
	var setups, boots, warms []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			e.shutdown()
		}
		begin := time.Now()
		if err := e.boot(); err != nil {
			return nil, err
		}
		booted := time.Since(begin)
		if err := e.warm(); err != nil {
			return nil, err
		}
		total := time.Since(begin)
		setups = append(setups, total.Seconds())
		boots = append(boots, e.servers[0].bootMS)
		warms = append(warms, (total - booted).Seconds())
	}
	m.set("setup_s", median(setups), "s")
	m.set("kgaqd.boot_ms", median(boots), "ms")
	m.set("kgaqd.warmup_s", median(warms), "s")

	// Measured phase.
	var gen generator
	if wl.churn {
		gen = churnGen(e.list, rootsOf(byCategory(e.list, "simple")), cfg.Seed, cfg.Clients)
	} else {
		gen = staticGen(e.list, cfg.Seed, cfg.Clients)
	}
	dur, ops := time.Duration(cfg.Seconds)*time.Second, minSamples
	if wl.churn {
		ops = minSamples * 5 / 4 // 4 of 5 operations are queries
	}
	if cfg.Seconds == 0 {
		ops = e.sized(wl.fullOps)
	}
	if cfg.Trace {
		// The traced stage and the probes share the run.
		dur, ops = dur/3, (ops+2)/3
	}
	before, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	flat, wall := runLoad(e.target(), cfg.Clients, gen, ops, dur)
	after, err := e.snapshot()
	if err != nil {
		return nil, err
	}

	e.endToEnd(m, res, flat, wall, before, after)
	if err := e.accuracy(m, res, flat); err != nil {
		return nil, err
	}
	if err := e.afterLoad(m, res, flat); err != nil {
		return nil, err
	}
	if cfg.Trace {
		if err := e.layerStage(m); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Findings) == 0
	return res, m.finish()
}

// federatedTruth replaces member 0's truths by the federation's: COUNT and
// SUM add over members, AVG is Σ SUM / Σ COUNT. A member that lacks the
// query's entity contributes an empty stratum, as kgaqd's does.
func federatedTruth(list []*distinct, data []*dataset) ([]*distinct, error) {
	out := make([]*distinct, len(list))
	for i, r := range list {
		key := answerKey{r.agg.Func, r.agg.Attr}
		var count, sum float64
		for _, d := range data {
			c, err := d.truthOf(r.agg, answerKey{query.Count, ""})
			if err != nil {
				return nil, err
			}
			count += c
			if key.fn != query.Count {
				s, err := d.truthOf(r.agg, answerKey{query.Sum, key.attr})
				if err != nil {
					return nil, err
				}
				sum += s
			}
		}
		fr := *r
		switch key.fn {
		case query.Count:
			fr.truth = map[answerKey]float64{key: count}
		case query.Sum:
			fr.truth = map[answerKey]float64{key: sum}
		default:
			fr.truth = map[answerKey]float64{key: sum / count}
		}
		out[i] = &fr
	}
	return out, nil
}

// counters is what the benchmark reads from outside around a phase.
type counters struct {
	health    []*health // per data server, then the coordinator
	serverCPU float64
	selfCPU   float64
}

func (e *env) snapshot() (*counters, error) {
	c := &counters{selfCPU: selfCPUSeconds()}
	for _, p := range e.all() {
		h, err := healthz(p.addr)
		if err != nil {
			return nil, err
		}
		c.health = append(c.health, h)
		cpu, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		c.serverCPU += cpu
	}
	return c, nil
}

// endToEnd computes the latency, throughput, memory and the layer readings
// taken from outside during the measured phase.
func (e *env) endToEnd(m *metrics, res *result, flat []sample, wall time.Duration, before, after *counters) {
	var qLat, mLat, overhead []float64
	var bytes, rounds, draws, queries float64
	for _, s := range flat {
		res.Attempted++
		if s.fail != "" {
			res.Failed++
			if res.Failed <= 5 {
				res.Findings = append(res.Findings, "failed request: "+s.fail)
			}
			continue
		}
		if s.mutate {
			mLat = append(mLat, s.latMS)
			continue
		}
		qLat = append(qLat, s.latMS)
		overhead = append(overhead, s.latMS-s.serverMS)
		bytes += float64(s.bytes)
		rounds += float64(s.rounds)
		draws += float64(s.draws)
		queries++
	}
	ok := float64(res.Attempted - res.Failed)
	if floor := e.sized(minSamples); !e.cfg.Trace && len(qLat) < floor {
		res.Findings = append(res.Findings, fmt.Sprintf("query_p95_ms rests on %d samples, fewer than %d", len(qLat), floor))
	}
	m.setN("query_p50_ms", percentile(qLat, 0.50), "ms", len(qLat))
	m.setN("query_p95_ms", percentile(qLat, 0.95), "ms", len(qLat))
	m.set("throughput_qps", ok/wall.Seconds(), "ops/s")
	m.set("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")

	var rss float64
	for _, p := range e.all() {
		v, err := rssPeakMB(p.cmd.Process.Pid)
		if err != nil {
			res.Findings = append(res.Findings, "rss: "+err.Error())
		}
		rss += v
	}
	m.set("rss_peak_mb", rss, "MB")

	m.set("httpapi.client_minus_server_ms", median(overhead), "ms")
	m.set("httpapi.response_bytes", bytes/max(queries, 1), "bytes")
	if len(mLat) > 0 {
		m.setN("mutate_p50_ms", percentile(mLat, 0.50), "ms", len(mLat))
		m.setN("httpapi.mutate_p95_ms", percentile(mLat, 0.95), "ms", len(mLat))
	}

	// Cache and admission are read on the data servers: a coordinator runs
	// no local queries.
	var hits, misses, shed, queued float64
	var cacheBytes, queueMS float64
	for i := range e.servers {
		b, a := before.health[i], after.health[i]
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		cacheBytes += float64(a.Cache.Bytes)
	}
	for i := range after.health {
		a := after.health[i].Admission
		shed += float64(a.ShedQueueFull + a.ShedRateLimit + a.ShedDraining)
		queued += float64(a.QueuedRequests)
		queueMS = max(queueMS, a.MeanQueueMS)
	}
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = hits / (hits + misses)
	}
	m.set("core.cache_hit_rate", hitRate, "ratio")
	m.set("core.cache_bytes", cacheBytes, "bytes")
	m.set("admission.shed_total", shed, "count")
	m.set("admission.queued_total", queued, "count")
	m.set("admission.mean_queue_ms", queueMS, "ms")
	if hitRate < e.wl.minHitRate {
		res.Findings = append(res.Findings, fmt.Sprintf("%s is mis-sized: measured-phase cache hit rate %.3f < %.2f", e.wl.name, hitRate, e.wl.minHitRate))
	}
	if e.wl.cacheOff && hits != 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%s saw %.0f cache hits with the cache disabled", e.wl.name, hits))
	}

	serverCPU := after.serverCPU - before.serverCPU
	selfCPU := after.selfCPU - before.selfCPU
	m.set("kgaqd.cpu_ms_per_query", 1000*serverCPU/max(ok, 1), "ms")
	m.set("bench.loadgen_cpu_share", selfCPU/max(selfCPU+serverCPU, 1e-9), "ratio")

	if e.coord != nil {
		m.exact("federate.rounds_per_query", rounds/max(queries, 1), "count")
		m.exact("federate.draws_per_query", draws/max(queries, 1), "count")
		h := after.health[len(after.health)-1]
		m.set("federate.degraded_share", float64(h.Federation.Partial)/max(queries, 1), "ratio")
	} else {
		// No coordinator in this workload: zero federated rounds were run.
		m.exact("federate.rounds_per_query", 0, "count")
		m.exact("federate.draws_per_query", 0, "count")
		m.set("federate.degraded_share", 0, "ratio")
		m.exact("core.rounds_per_query.e2e", rounds/max(queries, 1), "count")
		m.exact("core.draws_per_query.e2e", draws/max(queries, 1), "count")
	}
}
