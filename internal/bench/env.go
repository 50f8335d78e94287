package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"kgaq/internal/baselines"
	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// Config trims experiment size so the full suite can run in tests and CI.
type Config struct {
	// PerCategory caps the number of queries evaluated per (dataset,
	// category) bucket; zero means 4.
	PerCategory int
	// Profiles selects datasets (default: the three paper profiles).
	Profiles []datagen.Profile
	// Seed feeds the engines.
	Seed int64
	// TrainEpochs for Table XIII's embedding training (default 40).
	TrainEpochs int
	// Ctx, when set, cancels in-flight experiment queries (^C in aggbench);
	// nil means context.Background().
	Ctx context.Context
}

// ctx returns the configured cancellation context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) withDefaults() Config {
	if c.PerCategory <= 0 {
		c.PerCategory = 4
	}
	if len(c.Profiles) == 0 {
		c.Profiles = datagen.Profiles()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 40
	}
	return c
}

// QuickConfig is a fast configuration for tests and aggbench -quick: the
// tiny dataset, two queries per bucket.
func QuickConfig() Config {
	return Config{
		PerCategory: 2,
		Profiles:    []datagen.Profile{datagen.TinyProfile()},
		Seed:        1,
		TrainEpochs: 15,
	}
}

// Env is one dataset prepared for experiments: the generated graph and
// workload, the τ-GT oracle at the profile's optimal τ, and a cache of
// ground-truth values.
type Env struct {
	Profile datagen.Profile
	DS      *datagen.Dataset
	SSB     *baselines.SSB

	tauGT map[string]float64 // query ID → τ-GT value
	haGT  map[string]float64 // query ID → HA-GT value
}

// NewEnv generates the dataset and its oracles.
func NewEnv(p datagen.Profile) (*Env, error) {
	ds, err := datagen.Generate(p)
	if err != nil {
		return nil, err
	}
	ssb, err := baselines.NewSSB(ds.Graph, ds.Model, p.OptimalTau, 3)
	if err != nil {
		return nil, err
	}
	return &Env{
		Profile: p,
		DS:      ds,
		SSB:     ssb,
		tauGT:   map[string]float64{},
		haGT:    map[string]float64{},
	}, nil
}

// Envs builds environments for every configured profile.
func Envs(cfg Config) ([]*Env, error) {
	cfg = cfg.withDefaults()
	out := make([]*Env, 0, len(cfg.Profiles))
	for _, p := range cfg.Profiles {
		e, err := NewEnv(p)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// TauGT returns (computing once) the τ-GT value of a workload query.
func (e *Env) TauGT(q datagen.GenQuery) (float64, error) {
	if v, ok := e.tauGT[q.ID]; ok {
		return v, nil
	}
	res, err := e.SSB.Execute(q.Agg)
	if err != nil {
		return 0, err
	}
	e.tauGT[q.ID] = res.Value
	return res.Value, nil
}

// HAGT returns (computing once) the HA-GT value of a workload query.
func (e *Env) HAGT(q datagen.GenQuery) (float64, error) {
	if v, ok := e.haGT[q.ID]; ok {
		return v, nil
	}
	v, err := e.DS.HAValue(q)
	if err != nil {
		return 0, err
	}
	e.haGT[q.ID] = v
	return v, nil
}

// Engine builds the paper-default engine over this dataset (τ at the
// profile's optimum).
func (e *Env) Engine(opts core.Options) (*core.Engine, error) {
	if opts.Tau == 0 {
		opts.Tau = e.Profile.OptimalTau
	}
	return core.NewEngine(e.DS.Graph, e.DS.Model, opts)
}

// pick returns up to n queries of a category, preferring diverse templates
// (stable order).
func pick(e *Env, category string, n int) []datagen.GenQuery {
	qs := e.DS.QueriesByCategory(category)
	if len(qs) <= n {
		return qs
	}
	// Take a spread across the list rather than the first n (the workload
	// groups queries by anchor).
	out := make([]datagen.GenQuery, 0, n)
	step := len(qs) / n
	for i := 0; i < n; i++ {
		out = append(out, qs[i*step])
	}
	return out
}

// pickShape returns up to n queries of a query-graph shape.
func pickShape(e *Env, s query.Shape, n int) []datagen.GenQuery {
	var qs []datagen.GenQuery
	for _, q := range e.DS.Queries {
		// Extremes and grouped queries are evaluated by their own tables.
		if q.Category == "extreme" || q.Category == "groupby" {
			continue
		}
		if q.Shape == s {
			qs = append(qs, q)
		}
	}
	if len(qs) <= n {
		return qs
	}
	out := make([]datagen.GenQuery, 0, n)
	step := len(qs) / n
	for i := 0; i < n; i++ {
		out = append(out, qs[i*step])
	}
	return out
}

// timed measures one call's wall-clock time.
func timed(f func() error) (time.Duration, error) {
	begin := time.Now()
	err := f()
	return time.Since(begin), err
}

// relErr is relative error in percent, or NaN when the ground truth errors.
func relErrPct(est, truth float64) float64 {
	return 100 * stats.RelativeError(est, truth)
}

// meanOrDash formats the mean of xs, or "-" when empty.
func meanOrDash(xs []float64, format string) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf(format, stats.Mean(xs))
}

// methodSet builds the comparison systems for one environment. EAQ needs a
// trained link scorer; training cost is attributed to offline preparation,
// as in the paper.
func methodSet(e *Env, epochs int) ([]baselines.Method, error) {
	trained, err := embedding.Train("TransE", e.DS.Graph, embedding.TrainConfig{
		Dim: 24, Epochs: epochs, LearningRate: 0.03, Margin: 1, Seed: 9,
	})
	if err != nil {
		return nil, err
	}
	sgq, err := baselines.NewSGQ(e.DS.Graph, e.DS.Model, e.Profile.OptimalTau, 3)
	if err != nil {
		return nil, err
	}
	return []baselines.Method{
		baselines.NewEAQ(e.DS.Graph, trained),
		baselines.NewGraB(e.DS.Graph),
		baselines.NewQGA(e.DS.Graph),
		sgq,
		baselines.NewJENA(e.DS.Graph),
		baselines.NewVirtuoso(e.DS.Graph),
		e.SSB,
	}, nil
}

// shapes lists the five query shapes in the paper's column order.
func shapes() []query.Shape {
	return []query.Shape{
		query.ShapeSimple, query.ShapeChain, query.ShapeStar,
		query.ShapeCycle, query.ShapeFlower,
	}
}

// sortedKeys returns a map's keys in stable order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Runner executes one experiment and writes its report.
type Runner func(w io.Writer, cfg Config) error

// Registry maps experiment ids (table5…fig6f) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table5":           Table5,
		"table6":           Table6,
		"table7":           Table7,
		"table8":           Table8,
		"table9":           Table9,
		"table10":          Table10,
		"table11":          Table11,
		"table12":          Table12,
		"table13":          Table13,
		"fig5a":            Fig5a,
		"fig5b":            Fig5b,
		"fig5c":            Fig5c,
		"fig6a":            Fig6a,
		"fig6b":            Fig6b,
		"fig6d":            Fig6d,
		"fig6e":            Fig6e,
		"fig6f":            Fig6f,
		"ablation-divisor": AblationDivisor,
	}
}

// ExperimentIDs lists registry keys in paper order.
func ExperimentIDs() []string {
	return []string{
		"table5", "table6", "table7", "table8", "table9", "table10",
		"table11", "table12", "table13",
		"fig5a", "fig5b", "fig5c",
		"fig6a", "fig6b", "fig6d", "fig6e", "fig6f",
		"ablation-divisor",
	}
}
