package core

import (
	"context"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
)

// A simple query that samples rounds before its census asks its one leg for
// verdicts over several calls — each round's fresh draws, then the census's
// remainder — yet searches once: the first call validates the whole stage
// and the later ones read its verdicts. Its validation_expansions, read off
// the trace, are exactly those of one search asked for every answer of the
// stage, fewer than a fresh search per call over that call's new answers
// spends, and its answer digest is the one verdicts from a fresh search per
// answer give (freshOracle), on every such dbpedia-sim query on a cold
// engine.
func TestCensusSearchesOncePerLeg(t *testing.T) {
	p := datagen.DBpediaSim()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type outcome struct {
		digest     string
		exact      bool
		expansions float64
		calls      int
		perCall    int // a fresh search per call over the answers no earlier call asked
		single     int // one search over the stage's answers
	}
	run := func(q *query.Aggregate, reference bool) outcome {
		e := mustEngine(t, ds.Graph, ds.Model, Options{Tau: p.OptimalTau, Seed: 1})
		x, err := e.Start(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		inner := x.sp.oracle
		l := inner.(*levelOracle)
		fresh := newFreshOracle(x.oracleEnv())
		validate := func(us []kg.NodeID) int {
			stats, _ := semsim.Validate(ctx, x.v.g, e.calc, l.key.root, l.key.pred, us, make([]bool, len(us)),
				semsim.ValidatorConfig{MaxLen: x.opts.N, Tau: x.opts.Tau})
			return stats.Expansions
		}
		asked := map[kg.NodeID]bool{}
		x.sp = withOracle(x.sp, oracleFunc(func(ctx context.Context, env oracleEnv, us []kg.NodeID, verdicts []bool) bool {
			out.calls++
			var unasked []kg.NodeID
			for _, u := range us {
				if !asked[u] {
					asked[u] = true
					unasked = append(unasked, u)
				}
			}
			if len(unasked) > 0 {
				out.perCall += validate(unasked)
			}
			if !reference {
				return inner.batch(ctx, env, us, verdicts)
			}
			for j, u := range us {
				verdicts[j] = fresh.verdict(t, inner, u)
			}
			return true
		}))
		x.oneShot = true
		tr := obs.NewTracer(1, 1).Start("query", q.String())
		res, err := x.Refine(obs.WithTrace(ctx, tr), 0)
		out.digest, out.exact = resultDigest(res, err), err == nil && res.Exact
		out.expansions = tr.Counter("validation_expansions")
		out.single = validate(e.cache.fetchStage(l.key, x.v.epoch).answers)
		return out
	}
	tested := 0
	for _, gq := range ds.QueriesByShape(query.ShapeSimple) {
		if !gq.Agg.Func.HasGuarantee() {
			continue
		}
		got := run(gq.Agg, false)
		if got.calls < 2 || !got.exact {
			continue // answered by one call, or not by a census
		}
		ref := run(gq.Agg, true)
		if got.digest != ref.digest {
			t.Fatalf("%s: stage-wide validation\n%s\na fresh search per answer\n%s", gq.ID, got.digest, ref.digest)
		}
		if got.expansions != float64(got.single) {
			t.Fatalf("%s: %d calls expanded %v paths, one search over the stage's answers expands %d",
				gq.ID, got.calls, got.expansions, got.single)
		}
		if got.expansions >= float64(got.perCall) {
			t.Fatalf("%s: %v expansions, %d with a fresh search per call", gq.ID, got.expansions, got.perCall)
		}
		tested++
		t.Logf("%s: %d calls, %v expansions, %d with a fresh search per call", gq.ID, got.calls, got.expansions, got.perCall)
	}
	if tested < 5 {
		t.Fatalf("only %d queries validated over more than one call", tested)
	}
}
