package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/estimate"
	"kgaq/internal/live"
	"kgaq/internal/query"
)

// The answer digests pin every execution path to the answers of the commit
// before the refinement loops moved from per-round observation lists to
// running moments over a per-candidate term table (DESIGN.md "Running
// moments and the term table"). A digest covers every field of a Result or
// MultiResult except the wall-clock Times: each Round, the per-group and
// per-spec results, SampleSize, Distinct, Correct — floats by their bits.
// The golden values were captured at that parent commit by running this
// test with an empty table; a change that moves one of them has changed an
// answer, a sample or a count, not only its speed.

type digester struct{ b strings.Builder }

func (d *digester) f(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(&d.b, "%016x,", math.Float64bits(v))
	}
}

func (d *digester) i(vs ...int) {
	for _, v := range vs {
		fmt.Fprintf(&d.b, "%d,", v)
	}
}

func (d *digester) flag(vs ...bool) {
	for _, v := range vs {
		fmt.Fprintf(&d.b, "%t,", v)
	}
}

func (d *digester) rounds(rs []Round) {
	d.i(len(rs))
	for _, r := range rs {
		d.f(r.Estimate, r.MoE)
		d.i(r.SampleSize)
	}
}

func (d *digester) groups(gs map[string]GroupResult) {
	if gs == nil {
		d.b.WriteString("nogroups;")
		return
	}
	labels := make([]string, 0, len(gs))
	for l := range gs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		d.b.WriteString(l + ":")
		d.f(gs[l].Estimate, gs[l].MoE)
		d.i(gs[l].Draws)
	}
	d.b.WriteString(";")
}

func (d *digester) err(err error) {
	switch {
	case err == nil:
		d.b.WriteString("ok;")
	case errors.Is(err, ErrNotConverged):
		d.b.WriteString("notconverged;")
	case errors.Is(err, estimate.ErrNoCorrect):
		d.b.WriteString("nocorrect;")
	default:
		d.b.WriteString("err:" + err.Error() + ";")
	}
}

func (d *digester) result(res *Result, err error) {
	d.err(err)
	if res == nil {
		return
	}
	d.f(res.Estimate, res.MoE, res.Confidence, res.TargetEB)
	d.flag(res.Converged, res.Degraded)
	d.rounds(res.Rounds)
	d.i(res.SampleSize, res.Distinct, res.Correct, res.Candidates, res.Shards, int(res.Epoch))
	d.groups(res.Groups)
	d.census(res.Exact)
}

// census covers the census flag, which only a census answer sets: a row
// without one keeps its golden value.
func (d *digester) census(exact bool) {
	if exact {
		d.b.WriteString("exact;")
	}
}

func (d *digester) multi(res *MultiResult, err error) {
	d.err(err)
	if res == nil {
		return
	}
	d.f(res.Confidence)
	d.flag(res.Converged, res.Degraded)
	d.i(res.Rounds, res.SampleSize, res.Distinct, res.Correct, res.Candidates, res.Shards, int(res.Epoch))
	for _, a := range res.Aggs {
		d.b.WriteString(a.Spec.String() + ":")
		d.f(a.Estimate, a.MoE, a.ErrorBound)
		d.flag(a.Converged)
		d.rounds(a.Rounds)
		d.groups(a.Groups)
		d.census(a.Exact)
	}
}

func (d *digester) sample(ms *MemberSample, err error) {
	d.err(err)
	if ms == nil {
		return
	}
	d.i(ms.Candidates, int(ms.Epoch), len(ms.Obs))
	for _, o := range ms.Obs {
		d.f(o.Value, o.Prob, o.StratumWeight)
		d.flag(o.Correct)
		d.i(o.Stratum)
	}
}

func (d *digester) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:8])
}

// digestFixture is one (dataset, graph source) pair the scenarios run on.
type digestFixture struct {
	name    string
	eng     *Engine
	queries map[string][]*query.Aggregate // by datagen category
}

// digestFixtures builds tiny and dbpedia-sim, each as a static graph and as
// a live.Snapshot carrying a non-empty delta (a new automobile, a new
// player, an overwritten price — so attribute reads, type scans and
// neighbour lists all go through the overlay). tiny runs every workload
// query; dbpedia-sim six: one simple, filter, groupby, chain, star and
// extreme.
func digestFixtures(t *testing.T) []digestFixture {
	t.Helper()
	var out []digestFixture
	for _, p := range []datagen.Profile{datagen.TinyProfile(), datagen.DBpediaSim()} {
		ds, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		byCat := map[string][]*query.Aggregate{}
		for _, gq := range ds.Queries {
			if p.Name != "tiny" && len(byCat[gq.Category]) >= 1 {
				continue
			}
			if gq.Category == "cycle" || gq.Category == "flower" {
				if p.Name != "tiny" {
					continue
				}
			}
			byCat[gq.Category] = append(byCat[gq.Category], gq.Agg)
		}
		opts := Options{ErrorBound: 0.05, Tau: p.OptimalTau}
		static, err := NewEngine(ds.Graph, ds.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestFixture{name: p.Name + "/static", eng: static, queries: byCat})

		root := byCat["simple"][0].Q.Nodes[0].Name
		rootID := ds.Graph.NodeByName(root)
		auto := ds.Graph.TypeByName("Automobile")
		var car string
		for _, he := range ds.Graph.Neighbors(rootID) {
			if ds.Graph.HasType(he.To, auto) {
				car = ds.Graph.Name(he.To)
				break
			}
		}
		if car == "" {
			t.Fatalf("%s: root %s has no automobile neighbour", p.Name, root)
		}
		st := live.NewStore(ds.Graph, 0)
		if _, err := st.Apply(live.Batch{
			live.AddEntity("Car_delta", "Automobile"),
			live.AddEdge(root, "product", "Car_delta"),
			live.SetAttr("Car_delta", "price", 31337),
			live.SetAttr("Car_delta", "fuel_economy", 27),
			live.AddEntity("Player_delta", "SoccerPlayer"),
			live.AddEdge("Player_delta", "bornIn", root),
			live.SetAttr("Player_delta", "age", 24),
			live.SetAttr("Player_delta", "age_group", 2),
			live.SetAttr("Player_delta", "transfer_value", 1.5e6),
			live.SetAttr(car, "price", 99999),
		}); err != nil {
			t.Fatal(err)
		}
		if st.Snapshot().DeltaSize() == 0 {
			t.Fatalf("%s: live fixture has an empty delta", p.Name)
		}
		liveEng, err := NewLiveEngine(st, ds.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestFixture{name: p.Name + "/live", eng: liveEng, queries: byCat})
	}
	return out
}

// playerSpecs are the GROUP-BY fixtures' specs (the grouped queries target
// SoccerPlayer); valueSpecs the valued simple/filter/chain queries' own,
// over their aggregated attribute, with a MAX riding along.
func playerSpecs() []AggSpec {
	return []AggSpec{{Func: query.Count}, {Func: query.Avg, Attr: "transfer_value"}, {Func: query.Sum, Attr: "age", ErrorBound: 0.08}}
}

func valueSpecs(attr string) []AggSpec {
	return []AggSpec{{Func: query.Count}, {Func: query.Sum, Attr: attr}, {Func: query.Avg, Attr: attr, ErrorBound: 0.03}, {Func: query.Max, Attr: attr}}
}

// digestScenarios runs every scenario of one fixture and returns its
// digests by name.
func digestScenarios(t *testing.T, fx digestFixture) map[string]string {
	t.Helper()
	ctx := context.Background()
	e := fx.eng
	out := map[string]string{}
	seeds := []int64{1, 2}

	// Plain, filter, chain, star, cycle, flower, GROUP-BY, MAX/MIN: Query.
	for cat, qs := range fx.queries {
		var d digester
		for _, q := range qs {
			for _, seed := range seeds {
				d.result(e.Query(ctx, q, WithSeed(seed)))
			}
		}
		out[cat] = d.sum()
	}

	valued := func() []*query.Aggregate {
		var qs []*query.Aggregate
		for _, cat := range []string{"simple", "filter", "chain"} {
			for _, q := range fx.queries[cat] {
				if q.Attr != "" {
					qs = append(qs, q)
				}
			}
		}
		return qs
	}()

	// Multi-aggregate (with a MAX riding along), and extremes only.
	{
		var d digester
		for _, q := range valued {
			for _, seed := range seeds {
				d.multi(e.QueryMulti(ctx, q, valueSpecs(q.Attr), WithSeed(seed)))
			}
		}
		q := valued[0]
		d.multi(e.QueryMulti(ctx, q, []AggSpec{{Func: query.Max, Attr: q.Attr}, {Func: query.Min, Attr: q.Attr}}, WithSeed(3)))
		out["multi"] = d.sum()
	}
	{
		var d digester
		for _, q := range fx.queries["groupby"] {
			for _, seed := range seeds {
				d.multi(e.QueryMulti(ctx, q, playerSpecs(), WithSeed(seed)))
			}
		}
		out["multi-groupby"] = d.sum()
	}

	// WithShards(8): every path again, stratified.
	{
		var d digester
		for _, cat := range []string{"simple", "filter", "groupby", "extreme", "chain"} {
			for i, q := range fx.queries[cat] {
				if i >= 3 {
					break
				}
				d.result(e.Query(ctx, q, WithSeed(5), WithShards(8)))
			}
		}
		d.multi(e.QueryMulti(ctx, valued[0], valueSpecs(valued[0].Attr), WithSeed(5), WithShards(8)))
		d.multi(e.QueryMulti(ctx, fx.queries["groupby"][0], playerSpecs(), WithSeed(5), WithShards(8)))
		out["shards8"] = d.sum()
	}

	// Interactive tightening: Start → Refine(0.3) → Refine(0.05).
	{
		var d digester
		steps := func(q *query.Aggregate, opts ...QueryOption) {
			x, err := e.Start(ctx, q, opts...)
			if err != nil {
				d.err(err)
				return
			}
			d.result(x.Refine(ctx, 0.3))
			d.result(x.Refine(ctx, 0.05))
		}
		steps(valued[0], WithSeed(7))
		steps(fx.queries["chain"][0], WithSeed(7))
		steps(fx.queries["groupby"][0], WithSeed(7))
		steps(fx.queries["extreme"][0], WithSeed(7))
		steps(valued[0], WithSeed(7), WithShards(8))
		out["twostep"] = d.sum()
	}

	// The ablation knobs and the CorrectOnly divisor. (The topology samplers
	// are not deterministic under a seed and cannot be pinned by a digest.)
	{
		var d digester
		q := valued[0]
		cnt := fx.queries["simple"][0]
		for _, vary := range []func(*Options){
			func(o *Options) { o.Policy = estimate.CorrectOnly },
			func(o *Options) { o.SkipValidation = true },
			func(o *Options) { o.FixedDelta = 60 },
			func(o *Options) { o.MaxDraws = 300 },
			func(o *Options) { o.MinCorrect, o.ErrorBound = 1, 0.5 },
		} {
			o := e.opts
			vary(&o)
			d.result(e.Query(ctx, q, WithOptions(o), WithSeed(9)))
			d.result(e.Query(ctx, cnt, WithOptions(o), WithSeed(9)))
		}
		out["ablations"] = d.sum()
	}

	// The federation member's round: the returned observation list itself.
	{
		var d digester
		for _, q := range []*query.Aggregate{valued[0], fx.queries["simple"][0], fx.queries["filter"][0], fx.queries["chain"][0]} {
			d.sample(e.FederateSample(ctx, q, 40, true, WithSeed(11)))
			d.sample(e.FederateSample(ctx, q, 333, false, WithSeed(12)))
			d.sample(e.FederateSample(ctx, q, 1, false, WithSeed(13)))
		}
		out["federate"] = d.sum()
	}
	return out
}

// Every fixture runs its scenarios twice on one engine. The second pass
// compiles nothing — every answer space is a plan entry of the first, with
// the verdicts the first settled — and must return the same digests.
func TestAnswerDigests(t *testing.T) {
	for _, fx := range digestFixtures(t) {
		for _, pass := range []string{"cold", "warm"} {
			before := fx.eng.CacheStats()
			got := digestScenarios(t, fx)
			after := fx.eng.CacheStats()
			if pass == "warm" && (after.Misses != before.Misses || after.Hits == before.Hits) {
				t.Errorf("%s: the warm pass compiled: cache %+v → %+v", fx.name, before, after)
			}
			names := make([]string, 0, len(got))
			for name := range got {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				key := fx.name + "/" + name
				if want, ok := answerDigests[key]; !ok || want != got[name] {
					t.Errorf("%s pass: %q: %q, // golden %q", pass, key, got[name], want)
				}
			}
		}
	}
}
