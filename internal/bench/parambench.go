package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"kgaq/internal/baselines"
	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/estimate"
	"kgaq/internal/query"
)

// funcBuckets is the COUNT/AVG/SUM breakdown used by Table XII and the
// figure sweeps.
var funcBuckets = []query.AggFunc{query.Count, query.Avg, query.Sum}

// simpleByFunc picks up to n simple queries per aggregate function.
func simpleByFunc(e *Env, n int) map[query.AggFunc][]datagen.GenQuery {
	out := map[query.AggFunc][]datagen.GenQuery{}
	for _, q := range e.DS.QueriesByCategory("simple") {
		if len(out[q.Agg.Func]) < n {
			out[q.Agg.Func] = append(out[q.Agg.Func], q)
		}
	}
	return out
}

// Table12 reproduces Table XII: per-step time (ms) of the three pipeline
// stages — S1 semantic-aware sampling, S2 approximate estimation, S3
// accuracy guarantee — per aggregate function.
func Table12(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Profiles[0])
	if err != nil {
		return err
	}
	eng, err := env.Engine(core.Options{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	byFunc := simpleByFunc(env, cfg.PerCategory)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table XII: per-step time (ms) on", env.Profile.Name)
	fmt.Fprintln(tw, "Operator\tS1 sampling\tS2 estimation\tS3 guarantee")
	for _, fn := range funcBuckets {
		var s1, s2, s3 []float64
		for _, q := range byFunc[fn] {
			res, err := eng.Query(cfg.ctx(), q.Agg)
			if err != nil {
				continue
			}
			s1 = append(s1, float64(res.Times.Sampling.Microseconds())/1000)
			s2 = append(s2, float64(res.Times.Estimation.Microseconds())/1000)
			s3 = append(s3, float64(res.Times.Guarantee.Microseconds())/1000)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", fn,
			meanOrDash(s1, "%.2f"), meanOrDash(s2, "%.2f"), meanOrDash(s3, "%.2f"))
	}
	return tw.Flush()
}

// Table13 reproduces Table XIII: the effect of the KG embedding model —
// training time, parameter memory and query relative error (HA-GT) for
// TransE, TransD, TransH, RESCAL and SE trained on the dataset's triples.
func Table13(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Profiles[0])
	if err != nil {
		return err
	}
	qs := pick(env, "simple", cfg.PerCategory)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table XIII: effect of KG embedding models on", env.Profile.Name)
	fmt.Fprintln(tw, "Model\tEmbed time (s)\tMem (MB)\tRelative error % (HA-GT)")
	for _, name := range embedding.ModelNames() {
		dim := 24
		if name == "RESCAL" || name == "SE" {
			dim = 16 // matrix models carry dim² parameters per relation
		}
		trained, err := embedding.Train(name, env.DS.Graph, embedding.TrainConfig{
			Dim: dim, Epochs: cfg.TrainEpochs, LearningRate: 0.03, Margin: 1, Seed: 11,
		})
		if err != nil {
			return err
		}
		eng, err := core.NewEngine(env.DS.Graph, trained, core.Options{
			Tau: env.Profile.OptimalTau, Seed: cfg.Seed, ErrorBound: 0.01,
		})
		if err != nil {
			return err
		}
		var errs []float64
		for _, q := range qs {
			haGT, err := env.HAGT(q)
			if err != nil {
				continue
			}
			res, err := eng.Query(cfg.ctx(), q.Agg)
			if err != nil {
				continue
			}
			errs = append(errs, relErrPct(res.Estimate, haGT))
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%s\n", name,
			trained.TrainTime.Seconds(),
			float64(trained.MemoryBytes())/(1<<20),
			meanOrDash(errs, "%.2f"))
	}
	return tw.Flush()
}

// sweepPoint is one x-axis position of a parameter sweep.
type sweepPoint struct {
	label string
	opts  core.Options
}

// runSweep executes simple queries per aggregate function at every sweep
// point, reporting mean relative error (vs the chosen ground truth) and
// mean response time.
func runSweep(w io.Writer, cfg Config, title string, points []sweepPoint,
	gt func(*Env, datagen.GenQuery) (float64, error)) error {

	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Profiles[0])
	if err != nil {
		return err
	}
	byFunc := simpleByFunc(env, cfg.PerCategory)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, title, "on", env.Profile.Name)
	fmt.Fprint(tw, "Metric\tFunc")
	for _, p := range points {
		fmt.Fprintf(tw, "\t%s", p.label)
	}
	fmt.Fprintln(tw)

	type row struct{ errs, times []string }
	rows := map[query.AggFunc]*row{}
	for _, fn := range funcBuckets {
		rows[fn] = &row{}
	}
	for _, p := range points {
		opts := p.opts
		opts.Seed = cfg.Seed
		eng, err := env.Engine(opts)
		if err != nil {
			return err
		}
		for _, fn := range funcBuckets {
			var errs, times []float64
			for _, q := range byFunc[fn] {
				truth, err := gt(env, q)
				if err != nil {
					continue
				}
				var res *core.Result
				d, err := timed(func() error {
					var err error
					res, err = eng.Query(cfg.ctx(), q.Agg)
					return err
				})
				if err != nil {
					continue
				}
				errs = append(errs, relErrPct(res.Estimate, truth))
				times = append(times, float64(d.Microseconds())/1000)
			}
			rows[fn].errs = append(rows[fn].errs, meanOrDash(errs, "%.2f"))
			rows[fn].times = append(rows[fn].times, meanOrDash(times, "%.1f"))
		}
	}
	for _, fn := range funcBuckets {
		fmt.Fprintf(tw, "error %%\t%s", fn)
		for _, v := range rows[fn].errs {
			fmt.Fprintf(tw, "\t%s", v)
		}
		fmt.Fprintln(tw)
	}
	for _, fn := range funcBuckets {
		fmt.Fprintf(tw, "time ms\t%s", fn)
		for _, v := range rows[fn].times {
			fmt.Fprintf(tw, "\t%s", v)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func tauGTOf(e *Env, q datagen.GenQuery) (float64, error) { return e.TauGT(q) }
func haGTOf(e *Env, q datagen.GenQuery) (float64, error)  { return e.HAGT(q) }

// Fig5a reproduces Fig. 5(a): the sampling-step ablation — semantic-aware
// sampling vs the topology-only CNARW and Node2Vec walkers.
func Fig5a(w io.Writer, cfg Config) error {
	return runSweep(w, cfg, "Fig 5a: effect of S1 (sampler)", []sweepPoint{
		{label: "semantic", opts: core.Options{Sampler: core.SamplerSemantic}},
		{label: "CNARW", opts: core.Options{Sampler: core.SamplerCNARW}},
		{label: "Node2Vec", opts: core.Options{Sampler: core.SamplerNode2Vec}},
	}, haGTOf)
}

// Fig5b reproduces Fig. 5(b): estimation with vs without correctness
// validation.
func Fig5b(w io.Writer, cfg Config) error {
	return runSweep(w, cfg, "Fig 5b: effect of S2 (correctness validation)", []sweepPoint{
		{label: "w/ validation", opts: core.Options{}},
		{label: "w/o validation", opts: core.Options{SkipValidation: true}},
	}, haGTOf)
}

// Fig5c reproduces Fig. 5(c): the error-based sample-size configuration of
// Eq. 12 vs a fixed increment of 50.
func Fig5c(w io.Writer, cfg Config) error {
	return runSweep(w, cfg, "Fig 5c: effect of S3 (sample-size configuration)", []sweepPoint{
		{label: "error-based", opts: core.Options{}},
		{label: "fixed(50)", opts: core.Options{FixedDelta: 50}},
	}, haGTOf)
}

// Fig6a reproduces Fig. 6(a): interactive performance — the incremental
// response time as the user tightens eb from 5% to 1% in 1% steps.
func Fig6a(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Profiles[0])
	if err != nil {
		return err
	}
	byFunc := simpleByFunc(env, cfg.PerCategory)
	steps := []float64{0.05, 0.04, 0.03, 0.02, 0.01}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Fig 6a: incremental response time (ms) while tightening eb on", env.Profile.Name)
	fmt.Fprint(tw, "Func")
	for i := 1; i < len(steps); i++ {
		fmt.Fprintf(tw, "\t%.0f%%→%.0f%%", steps[i-1]*100, steps[i]*100)
	}
	fmt.Fprintln(tw)
	for _, fn := range funcBuckets {
		inc := make([][]float64, len(steps)-1)
		for _, q := range byFunc[fn] {
			eng, err := env.Engine(core.Options{Seed: cfg.Seed})
			if err != nil {
				return err
			}
			x, err := eng.Start(cfg.ctx(), q.Agg)
			if err != nil {
				continue
			}
			if _, err := x.Refine(cfg.ctx(), steps[0]); err != nil {
				continue
			}
			for i := 1; i < len(steps); i++ {
				begin := time.Now()
				if _, err := x.Refine(cfg.ctx(), steps[i]); err != nil {
					break
				}
				inc[i-1] = append(inc[i-1], float64(time.Since(begin).Microseconds())/1000)
			}
		}
		fmt.Fprintf(tw, "%s", fn)
		for i := range inc {
			fmt.Fprintf(tw, "\t%s", meanOrDash(inc[i], "%.2f"))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig6b reproduces Fig. 6(b): the confidence-level sweep.
func Fig6b(w io.Writer, cfg Config) error {
	var points []sweepPoint
	for _, c := range []float64{0.86, 0.89, 0.92, 0.95, 0.98} {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%.0f%%", c*100),
			opts:  core.Options{Confidence: c},
		})
	}
	return runSweep(w, cfg, "Fig 6b: effect of confidence level 1-α", points, haGTOf)
}

// Fig6d reproduces Fig. 6(d): the desired-sample-ratio sweep.
func Fig6d(w io.Writer, cfg Config) error {
	var points []sweepPoint
	for _, l := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("λ=%.1f", l),
			opts:  core.Options{Lambda: l},
		})
	}
	return runSweep(w, cfg, "Fig 6d: effect of desired sample ratio λ", points, haGTOf)
}

// Fig6e reproduces Fig. 6(e): the n-bounded-subgraph sweep.
func Fig6e(w io.Writer, cfg Config) error {
	var points []sweepPoint
	for n := 1; n <= 5; n++ {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("n=%d", n),
			opts:  core.Options{N: n},
		})
	}
	return runSweep(w, cfg, "Fig 6e: effect of n-bounded subgraph", points, haGTOf)
}

// Fig6f reproduces Fig. 6(f): the τ sweep against both ground truths. The
// left panel (τ-GT) recomputes the oracle at each τ; the right panel keeps
// HA-GT fixed.
func Fig6f(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Profiles[0])
	if err != nil {
		return err
	}
	byFunc := simpleByFunc(env, cfg.PerCategory)
	taus := []float64{0.70, 0.75, 0.80, 0.85, 0.90}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Fig 6f: effect of similarity threshold τ on", env.Profile.Name)
	fmt.Fprint(tw, "GT\tFunc")
	for _, tau := range taus {
		fmt.Fprintf(tw, "\tτ=%.2f", tau)
	}
	fmt.Fprintln(tw)

	for _, gt := range []string{"τ-GT", "HA-GT"} {
		rows := map[query.AggFunc][]string{}
		for _, tau := range taus {
			var oracle *baselines.SSB
			if gt == "τ-GT" {
				oracle, err = baselines.NewSSB(env.DS.Graph, env.DS.Model, tau, 3)
				if err != nil {
					return err
				}
			}
			eng, err := env.Engine(core.Options{Tau: tau, Seed: cfg.Seed})
			if err != nil {
				return err
			}
			for _, fn := range funcBuckets {
				var errs []float64
				for _, q := range byFunc[fn] {
					var truth float64
					if gt == "τ-GT" {
						ans, err := oracle.Execute(q.Agg)
						if err != nil {
							continue
						}
						truth = ans.Value
					} else {
						truth, err = env.HAGT(q)
						if err != nil {
							continue
						}
					}
					res, err := eng.Query(cfg.ctx(), q.Agg)
					if err != nil {
						continue
					}
					errs = append(errs, relErrPct(res.Estimate, truth))
				}
				rows[fn] = append(rows[fn], meanOrDash(errs, "%.2f"))
			}
		}
		for _, fn := range funcBuckets {
			fmt.Fprintf(tw, "%s\t%s", gt, fn)
			for _, v := range rows[fn] {
				fmt.Fprintf(tw, "\t%s", v)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// AblationDivisor compares the unbiased SampleSize divisor policy against
// the paper's printed CorrectOnly form (DESIGN.md, estimator subtlety).
func AblationDivisor(w io.Writer, cfg Config) error {
	return runSweep(w, cfg, "Ablation: estimator divisor policy", []sweepPoint{
		{label: "sample-size", opts: core.Options{Policy: estimate.SampleSize}},
		{label: "correct-only", opts: core.Options{Policy: estimate.CorrectOnly}},
	}, tauGTOf)
}
