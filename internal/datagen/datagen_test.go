package datagen

import (
	"context"
	"testing"

	"kgaq/internal/core"
	"kgaq/internal/kg"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/stats"
)

func tiny(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateTiny(t *testing.T) {
	ds := tiny(t)
	g := ds.Graph
	if g.NumNodes() < 200 || g.NumEdges() < 300 {
		t.Fatalf("tiny graph too small: %v", g)
	}
	if err := ds.Model.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(ds.Queries) == 0 {
		t.Fatal("no queries generated")
	}
	cats := map[string]int{}
	for _, q := range ds.Queries {
		cats[q.Category]++
		if err := q.Agg.Validate(); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
	for _, c := range []string{"simple", "filter", "groupby", "extreme", "chain", "star", "cycle"} {
		if cats[c] == 0 {
			t.Errorf("no %s queries (have %v)", c, cats)
		}
	}
}

func TestGenerateRejectsBadProfile(t *testing.T) {
	if _, err := Generate(Profile{Countries: 1, Scale: 1}); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func TestHAAnswersExistAndTyped(t *testing.T) {
	ds := tiny(t)
	g := ds.Graph
	for _, q := range ds.Queries {
		tgt := q.Agg.Q.Nodes[q.Agg.Q.Target]
		var types []kg.TypeID
		for _, tn := range tgt.Types {
			id := g.TypeByName(tn)
			if id == kg.InvalidType {
				t.Fatalf("%s: unknown target type %q", q.ID, tn)
			}
			types = append(types, id)
		}
		for _, name := range q.HAAnswers {
			u := g.NodeByName(name)
			if u == kg.InvalidNode {
				t.Fatalf("%s: HA answer %q not in graph", q.ID, name)
			}
			if !g.SharesType(u, types) {
				t.Fatalf("%s: HA answer %q lacks target type %v", q.ID, name, tgt.Types)
			}
		}
	}
}

func TestHAValueComputes(t *testing.T) {
	ds := tiny(t)
	for _, q := range ds.Queries {
		if _, err := ds.HAValue(q); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := tiny(t)
	b := tiny(t)
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("graph generation nondeterministic")
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("workload nondeterministic")
	}
	for i := range a.Queries {
		if a.Queries[i].ID != b.Queries[i].ID || len(a.Queries[i].HAAnswers) != len(b.Queries[i].HAAnswers) {
			t.Fatal("query ground truth nondeterministic")
		}
	}
}

func TestProfilesShapeOrdering(t *testing.T) {
	// Freebase-sim must out-scale DBpedia-sim in edges and predicates, and
	// YAGO2-sim must have the smallest predicate vocabulary relative to its
	// size, mirroring Table III's shape.
	db, err := Generate(DBpediaSim())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Generate(FreebaseSim())
	if err != nil {
		t.Fatal(err)
	}
	yg, err := Generate(Yago2Sim())
	if err != nil {
		t.Fatal(err)
	}
	if fb.Graph.NumEdges() <= db.Graph.NumEdges() {
		t.Fatalf("freebase-sim edges %d ≤ dbpedia-sim %d", fb.Graph.NumEdges(), db.Graph.NumEdges())
	}
	if fb.Graph.NumPredicates() <= db.Graph.NumPredicates() {
		t.Fatal("freebase-sim should have the largest predicate vocabulary")
	}
	if yg.Graph.NumPredicates() >= db.Graph.NumPredicates() {
		t.Fatal("yago2-sim should have the smallest predicate vocabulary")
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("dbpedia-sim"); !ok {
		t.Fatal("dbpedia-sim missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile resolved")
	}
}

// τ-GT at the profile's optimal τ must agree closely with HA-GT: the
// Table V premise. Checked via exhaustive (SSB) similarities on a product
// query.
func TestTauGTMatchesHAGT(t *testing.T) {
	ds := tiny(t)
	g := ds.Graph
	calc, err := semsim.NewCalculator(g, ds.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Table V's metric is the AVERAGE Jaccard over queries: a single
	// annotator-rejected schema legitimately drags one query down (the
	// paper's peak AJS is 0.95, not 1).
	var sum float64
	checked := 0
	for _, q := range ds.Queries {
		if q.Category != "simple" || q.Shape != query.ShapeSimple {
			continue
		}
		paths, err := q.Agg.Q.Decompose()
		if err != nil || len(paths) != 1 || len(paths[0].Hops) != 1 {
			continue
		}
		us := g.NodeByName(paths[0].RootName)
		pred := g.PredByName(paths[0].Hops[0].Predicate)
		tgtType := g.TypeByName(paths[0].Hops[0].Types[0])
		best := semsim.Exhaustive(g, calc, us, pred, 3)
		tau := TinyProfile().OptimalTau
		tauSet := map[string]bool{}
		for u, s := range best {
			if g.HasType(u, tgtType) && s >= tau {
				tauSet[g.Name(u)] = true
			}
		}
		haSet := map[string]bool{}
		for _, n := range q.HAAnswers {
			haSet[n] = true
		}
		sum += stats.Jaccard(tauSet, haSet)
		checked++
		if checked >= 8 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no simple queries checked")
	}
	if ajs := sum / float64(checked); ajs < 0.8 {
		t.Fatalf("average Jaccard(τ-GT, HA-GT) = %v over %d queries, want ≥ 0.8", ajs, checked)
	}
}

// End-to-end: the engine's estimate on generated data lands near the HA
// ground truth for COUNT queries at the profile's optimal τ.
func TestEngineOnGeneratedData(t *testing.T) {
	ds := tiny(t)
	eng, err := core.NewEngine(ds.Graph, ds.Model, core.Options{
		Tau: TinyProfile().OptimalTau, ErrorBound: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, q := range ds.Queries {
		if q.Category != "simple" || q.Agg.Func != query.Count {
			continue
		}
		truth, err := ds.HAValue(q)
		if err != nil || truth < 3 {
			continue
		}
		res, err := eng.Query(context.Background(), q.Agg)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if rel := stats.RelativeError(res.Estimate, truth); rel > 0.25 {
			t.Errorf("%s: estimate %v vs HA truth %v (rel %v)", q.ID, res.Estimate, truth, rel)
		}
		checked++
		if checked >= 4 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no COUNT queries executed")
	}
}
