package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/walk"
)

// TrajectorySchema versions the BENCH_*.json layout so future PRs can
// extend it without breaking readers of earlier baselines. v2 adds the
// churn (mixed read/write) section; v3 adds the sharded cold-query
// comparison; v4 adds the multi-aggregate (QueryMulti vs separate
// queries) comparison; v5 adds the sustained-throughput axis (fixed-rate
// mixed workload through the admission-controlled serving stack); v6 adds
// the convergence-telemetry axis (mean refinement rounds and the
// validation share of query time); v7 adds the runner-noise
// characterisation (per-pass percentile spread over repeated measured
// passes), which the regression gate derives its tolerance from; v8 adds
// the federated scatter/gather axis (1 coordinator + 3 in-process members
// over split graphs vs the unsplit twin).
const TrajectorySchema = "kgaq-bench-trajectory/v8"

// measuredPasses is the number of measured workload repetitions after the
// warm-up pass: the pooled latencies give the headline percentiles, and
// the per-pass percentile spread is the runner-noise signal recorded in
// Trajectory.Noise.
const measuredPasses = 3

// Trajectory is one tracked performance baseline: the serving hot path
// measured end to end (latency distribution, sampling throughput, cache
// behaviour) plus the micro-benchmarks of the layers this baseline exists
// to keep honest. Each PR that touches the hot path appends a new
// BENCH_<pr>.json so regressions have a number to be measured against.
type Trajectory struct {
	Schema    string    `json:"schema"`
	Label     string    `json:"label"`
	CreatedAt time.Time `json:"created_at"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Profile string `json:"profile"`
	Queries int    `json:"queries"`

	// End-to-end serving measurements over the repeated workload.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	LatencyMaxMS float64 `json:"latency_max_ms"`
	DrawsPerSec  float64 `json:"draws_per_sec"`

	Cache TrajectoryCache `json:"cache"`

	// Churn is the mixed read/write measurement: the same workload under a
	// sustained ~20% mutation mix on a live engine (nil in configurations
	// that skip it).
	Churn *ChurnResult `json:"churn,omitempty"`

	// Sharded compares cold-query latency on the 40k-node bench graph
	// across shard counts (partition-parallel execution, DESIGN.md
	// "Sharded execution").
	Sharded *ShardedResult `json:"sharded,omitempty"`

	// MultiAgg compares COUNT+SUM+AVG as one QueryMulti (one build, one
	// shared sample) against three separate queries (DESIGN.md "Prepared
	// plans").
	MultiAgg *MultiAggResult `json:"multi_agg,omitempty"`

	// Throughput measures the full serving stack (HTTP, middleware,
	// admission) under a fixed-rate mixed workload at a sustainable rate
	// and at overload (DESIGN.md "Serving tier").
	Throughput *ThroughputResult `json:"throughput,omitempty"`

	// Convergence is the telemetry axis over the measured pass: refinement
	// rounds to the guarantee and where the query time went.
	Convergence *ConvergenceResult `json:"convergence,omitempty"`

	// Federated is the scatter/gather axis: cold latency through a
	// 1-coordinator / 3-member loopback federation over split graphs, next
	// to the unsplit twin, with per-query member fan-out (DESIGN.md
	// "Federation: remote strata").
	Federated *FederatedResult `json:"federated,omitempty"`

	// Noise characterises the runner: the spread of the per-pass latency
	// percentiles across the repeated measured passes of this very run. A
	// regression gate that ignores it either flakes (tolerance below the
	// runner's own noise) or sleeps through real regressions (tolerance
	// padded by guesswork); -gate derives its tolerance from this record.
	Noise *NoiseResult `json:"noise,omitempty"`

	Micro []MicroResult `json:"micro"`
}

// NoiseResult is the repeat-run noise measurement: each measured workload
// pass yields its own p50/p95, and the min–max spread across passes bounds
// how far two honest runs of the same binary on this runner disagree.
type NoiseResult struct {
	// Passes is the number of measured workload repetitions.
	Passes int `json:"passes"`
	// P50MinMS/P50MaxMS and P95MinMS/P95MaxMS are the extremes of the
	// per-pass percentiles.
	P50MinMS float64 `json:"p50_min_ms"`
	P50MaxMS float64 `json:"p50_max_ms"`
	P95MinMS float64 `json:"p95_min_ms"`
	P95MaxMS float64 `json:"p95_max_ms"`
	// P50Spread and P95Spread are (max-min)/min — the relative run-to-run
	// disagreement the gate must at least forgive.
	P50Spread float64 `json:"p50_spread"`
	P95Spread float64 `json:"p95_spread"`
}

// MaxSpread returns the larger of the two percentile spreads.
func (n *NoiseResult) MaxSpread() float64 {
	if n.P50Spread > n.P95Spread {
		return n.P50Spread
	}
	return n.P95Spread
}

// ConvergenceResult aggregates the per-query convergence telemetry of the
// measured (warm) workload pass — the same numbers the serving tier exports
// per query through kgaq_core_rounds_per_query and /debug/trace.
type ConvergenceResult struct {
	// MeanRounds / MaxRounds count guarantee-loop rounds per query.
	MeanRounds float64 `json:"mean_rounds"`
	MaxRounds  int     `json:"max_rounds"`
	// ValidationShare is the fraction of total query time spent in the
	// estimation step, where drawn answers meet the semantic verdict
	// oracle; SamplingShare and GuaranteeShare cover the rest of the
	// paper's three-step split.
	ValidationShare float64 `json:"validation_share"`
	SamplingShare   float64 `json:"sampling_share"`
	GuaranteeShare  float64 `json:"guarantee_share"`
}

// TrajectoryCache snapshots the engine's answer-space cache after the
// workload ran (the second half of the workload repeats the first, so a
// healthy cache shows a hit rate well above zero).
type TrajectoryCache struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
	Bytes   int64   `json:"bytes"`
}

// MicroResult is one micro-benchmark measurement captured via
// testing.Benchmark.
type MicroResult struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
}

func microResult(name string, fn func(b *testing.B)) MicroResult {
	r := testing.Benchmark(fn)
	return MicroResult{
		Name:     name,
		NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}
}

// RunTrajectory measures the serving hot path and the layer
// micro-benchmarks, returning the baseline record. The workload is the
// tiny profile's generated query set, run twice over one engine: the first
// pass populates the answer-space cache, the second measures the steady
// state a hot server sees.
func RunTrajectory(cfg Config, label string) (*Trajectory, error) {
	cfg = cfg.withDefaults()
	profile := cfg.Profiles[0]
	env, err := NewEnv(profile)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(env.DS.Graph, env.DS.Model,
		core.Options{Tau: profile.OptimalTau, ErrorBound: 0.05, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	ctx := cfg.ctx()
	var latencies []float64
	passP50 := make([]float64, 0, measuredPasses)
	passP95 := make([]float64, 0, measuredPasses)
	totalDraws := 0
	totalTime := time.Duration(0)
	ran := 0
	totalRounds, maxRounds := 0, 0
	var steps core.StepTimes
	for pass := 0; pass <= measuredPasses; pass++ {
		var passLat []float64
		for _, gq := range env.DS.Queries {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			begin := time.Now()
			res, err := eng.Query(ctx, gq.Agg)
			elapsed := time.Since(begin)
			if err != nil {
				continue // a workload query without candidates is not a perf signal
			}
			if pass == 0 {
				continue // warm-up only: cold convergence must not dilute the baseline
			}
			ran++
			ms := float64(elapsed.Microseconds()) / 1000
			latencies = append(latencies, ms)
			passLat = append(passLat, ms)
			totalDraws += res.SampleSize
			totalTime += elapsed
			totalRounds += len(res.Rounds)
			if len(res.Rounds) > maxRounds {
				maxRounds = len(res.Rounds)
			}
			steps.Sampling += res.Times.Sampling
			steps.Estimation += res.Times.Estimation
			steps.Guarantee += res.Times.Guarantee
		}
		if pass > 0 && len(passLat) > 0 {
			sort.Float64s(passLat)
			passP50 = append(passP50, percentile(passLat, 0.50))
			passP95 = append(passP95, percentile(passLat, 0.95))
		}
	}
	if len(latencies) == 0 {
		return nil, fmt.Errorf("bench: no workload query completed")
	}
	sort.Float64s(latencies)
	cs := eng.CacheStats()

	tr := &Trajectory{
		Schema:       TrajectorySchema,
		Label:        label,
		CreatedAt:    time.Now().UTC(),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		Profile:      profile.Name,
		Queries:      ran,
		LatencyP50MS: percentile(latencies, 0.50),
		LatencyP95MS: percentile(latencies, 0.95),
		LatencyMaxMS: latencies[len(latencies)-1],
		DrawsPerSec:  float64(totalDraws) / totalTime.Seconds(),
		Cache: TrajectoryCache{
			Hits:    cs.Hits,
			Misses:  cs.Misses,
			HitRate: cs.HitRate(),
			Entries: cs.Entries,
			Bytes:   cs.Bytes,
		},
		Micro: microBenchmarks(),
	}
	if len(passP50) > 1 {
		tr.Noise = noiseFromPasses(passP50, passP95)
	}
	if total := steps.Total(); total > 0 {
		tr.Convergence = &ConvergenceResult{
			MeanRounds:      float64(totalRounds) / float64(ran),
			MaxRounds:       maxRounds,
			ValidationShare: steps.Estimation.Seconds() / total.Seconds(),
			SamplingShare:   steps.Sampling.Seconds() / total.Seconds(),
			GuaranteeShare:  steps.Guarantee.Seconds() / total.Seconds(),
		}
	}
	churn, err := RunChurn(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: churn scenario: %w", err)
	}
	tr.Churn = churn
	sharded, err := RunSharded(ctx, []int{1, 8})
	if err != nil {
		return nil, fmt.Errorf("bench: sharded scenario: %w", err)
	}
	tr.Sharded = sharded
	multiAgg, err := RunMultiAgg(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: multi-aggregate scenario: %w", err)
	}
	tr.MultiAgg = multiAgg
	throughput, err := RunThroughput(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: throughput scenario: %w", err)
	}
	tr.Throughput = throughput
	federated, err := RunFederated(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: federated scenario: %w", err)
	}
	tr.Federated = federated
	return tr, nil
}

// microBenchmarks runs the layer micro-benchmarks in-process: walker build
// + convergence (the CSR core), batched greedy validation (the ValidateCtx
// allocation profile), and a full cached engine query.
func microBenchmarks() []MicroResult {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	us := g.NodeByName("Germany")
	pred := g.PredByName("product")

	var out []MicroResult
	out = append(out, microResult("walker_build_converge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := walk.New(g, calc, us, pred, walk.Config{N: 3})
			if err != nil {
				b.Fatal(err)
			}
			w.Converge()
		}
	}))

	w, err := walk.New(g, calc, us, pred, walk.Config{N: 3})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	w.Converge()
	pi := w.PiMap()
	auto := g.TypeByName("Automobile")
	cands := g.BoundedSubgraph(us, 3).CandidateAnswers(g, []kg.TypeID{auto})
	out = append(out, microResult("validate_batch", func(b *testing.B) {
		b.ReportAllocs()
		vcfg := semsim.ValidatorConfig{Repeat: 3, MaxLen: 3, Tau: 0.85}
		for i := 0; i < b.N; i++ {
			semsim.Validate(g, calc, us, pred, pi, cands, vcfg)
		}
	}))

	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.05, Seed: 7})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	q := query.Simple(query.Avg, "price", "Germany", "Country", "product", "Automobile")
	out = append(out, microResult("engine_query_cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return out
}

// noiseFromPasses condenses per-pass percentiles into the min–max spread
// record.
func noiseFromPasses(p50s, p95s []float64) *NoiseResult {
	minMax := func(vs []float64) (lo, hi float64) {
		lo, hi = vs[0], vs[0]
		for _, v := range vs[1:] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return lo, hi
	}
	spread := func(lo, hi float64) float64 {
		if lo <= 0 {
			return 0
		}
		return (hi - lo) / lo
	}
	p50lo, p50hi := minMax(p50s)
	p95lo, p95hi := minMax(p95s)
	return &NoiseResult{
		Passes:    len(p50s),
		P50MinMS:  p50lo,
		P50MaxMS:  p50hi,
		P95MinMS:  p95lo,
		P95MaxMS:  p95hi,
		P50Spread: spread(p50lo, p50hi),
		P95Spread: spread(p95lo, p95hi),
	}
}

// percentile returns the p-quantile of sorted values (nearest-rank:
// ceil(p·n)-1).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteTrajectory runs the baseline measurement and writes it as indented
// JSON to path, echoing a summary to w.
func WriteTrajectory(w io.Writer, cfg Config, label, path string) error {
	tr, err := RunTrajectory(cfg, label)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trajectory %s: %d queries, p50 %.2fms, p95 %.2fms, %.0f draws/s, cache hit rate %.2f → %s\n",
		label, tr.Queries, tr.LatencyP50MS, tr.LatencyP95MS, tr.DrawsPerSec, tr.Cache.HitRate, path)
	if c := tr.Churn; c != nil {
		fmt.Fprintf(w, "  churn: %d reads / %d batches (%.0f%% writes), read p50 %.2fms, p95 %.2fms, hit rate %.2f, %d invalidated, epoch %d\n",
			c.Queries, c.Batches, 100*c.WriteMix, c.ReadP50MS, c.ReadP95MS, c.CacheHitRate, c.Invalidated, c.FinalEpoch)
	}
	if s := tr.Sharded; s != nil {
		for _, run := range s.Runs {
			fmt.Fprintf(w, "  sharded: %d shards, %d cold queries on %d nodes, p50 %.2fms, p95 %.2fms, %d draws\n",
				run.Shards, run.Queries, s.Nodes, run.ColdP50MS, run.ColdP95MS, run.Draws)
		}
		fmt.Fprintf(w, "  sharded p95 speedup: %.2fx\n", s.SpeedupP95)
	}
	if m := tr.MultiAgg; m != nil {
		for _, run := range m.Runs {
			fmt.Fprintf(w, "  multi-agg %-14s %d cold queries, p50 %.2fms, p95 %.2fms, %d draws\n",
				run.Mode+":", run.Queries, run.P50MS, run.P95MS, run.Draws)
		}
		fmt.Fprintf(w, "  multi-agg p50 cost: QueryMulti %.2fx single (three separate queries %.2fx)\n",
			m.MultiVsSingle, m.SeparateVsSingle)
	}
	if tp := tr.Throughput; tp != nil {
		for _, run := range []struct {
			name string
			r    ThroughputRun
		}{{"sustained", tp.Sustained}, {"overload", tp.Overload}} {
			fmt.Fprintf(w, "  throughput %-10s %5.0f req/s offered: %d completed (%.0f/s), %d shed, %d dropped, %d degraded, p50 %.2fms, p99 %.2fms\n",
				run.name+":", run.r.TargetRate, run.r.Completed, run.r.AchievedRate,
				run.r.Shed, run.r.Dropped, run.r.Degraded, run.r.LatencyP50MS, run.r.LatencyP99MS)
		}
	}
	if c := tr.Convergence; c != nil {
		fmt.Fprintf(w, "  convergence: mean %.2f rounds (max %d), time split sampling %.0f%% / validation %.0f%% / guarantee %.0f%%\n",
			c.MeanRounds, c.MaxRounds, 100*c.SamplingShare, 100*c.ValidationShare, 100*c.GuaranteeShare)
	}
	if f := tr.Federated; f != nil {
		fmt.Fprintf(w, "  federated: %d members, %d cold queries, p50 %.2fms, p95 %.2fms (twin p50 %.2fms), %.1f rounds/query, %.1f RPCs/query, %.0f draws/query\n",
			f.Members, f.Queries, f.ColdP50MS, f.ColdP95MS, f.TwinColdP50MS, f.MeanRounds, f.RPCsPerQuery, f.DrawsPerQuery)
	}
	if n := tr.Noise; n != nil {
		fmt.Fprintf(w, "  noise: %d passes, p50 %.2f–%.2fms (spread %.0f%%), p95 %.2f–%.2fms (spread %.0f%%)\n",
			n.Passes, n.P50MinMS, n.P50MaxMS, 100*n.P50Spread, n.P95MinMS, n.P95MaxMS, 100*n.P95Spread)
	}
	for _, m := range tr.Micro {
		fmt.Fprintf(w, "  micro %-22s %12.0f ns/op %8d B/op %6d allocs/op\n", m.Name, m.NsPerOp, m.BytesOp, m.AllocsOp)
	}
	return nil
}
