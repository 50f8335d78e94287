package walk

import (
	"context"
	"slices"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/semsim"
)

// The dense pass of New against the construction it replaced, kept here as
// the reference: the scope and membership test of kg.BFS (a hash map) and
// the weighted degree summed over in-bound neighbours in adjacency order.
// On every sampled (root, predicate) of dbpedia-sim — the static graph and a
// live snapshot whose delta adds an entity, adds an edge and removes one —
// the scope order and every π(i) must match bit for bit, and the two checks
// of the closed form must agree: the scatter residual lets it through, and
// one step of Eq. 5's matrix (the test reference) moves it by less than the
// same tol.
func TestDensePassMatchesReference(t *testing.T) {
	p, _ := datagen.ProfileByName("dbpedia-sim")
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	calc, err := semsim.NewCalculator(g, ds.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	var src, dst kg.NodeID
	var pred kg.PredID
	g.EachEdge(func(s kg.NodeID, p kg.PredID, d kg.NodeID) bool {
		src, pred, dst = s, p, d
		return false
	})
	snap, err := live.NewStore(g, 0).Apply(live.Batch{
		live.AddEntity("differential_new", g.TypeName(g.Types(dst)[0])),
		live.AddEdge("differential_new", g.PredName(pred), g.Name(dst)),
		live.RemoveEdge(g.Name(src), g.PredName(pred), g.Name(dst)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.DeltaSize() == 0 {
		t.Fatal("the live snapshot has no delta")
	}
	// Roots include the mutated region: both ends of the removed edge and
	// the added entity.
	roots := []kg.NodeID{src, dst, snap.NodeByName("differential_new")}
	for u := 0; u < g.NumNodes(); u += 41 {
		roots = append(roots, kg.NodeID(u))
	}
	cfg := Config{N: 3}.withDefaults()
	for name, rg := range map[string]kg.ReadGraph{"static": g, "live": snap} {
		for _, root := range roots {
			if int(root) >= rg.NumNodes() {
				continue
			}
			for qp := kg.PredID(0); int(qp) < rg.NumPredicates(); qp += 11 {
				w, err := New(rg, calc, root, qp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.ConvergeCtx(context.Background()); err != nil {
					t.Fatalf("%s %d/%d: %v", name, root, qp, err)
				}

				bound := kg.BFS(rg, root, cfg.N)
				if !slices.Equal(w.Scope(), bound.Nodes) {
					t.Fatalf("%s %d/%d: scope differs from kg.BFS", name, root, qp)
				}
				simRow := calc.SimRow(qp)
				weights := make([]float64, len(bound.Nodes))
				total := 0.0
				for i, u := range bound.Nodes {
					sum := 0.0
					for _, he := range rg.Neighbors(u) {
						if bound.Contains(he.To) {
							sum += simRow[he.Pred]
						}
					}
					if u == root {
						sum += selfLoopSim
					}
					weights[i] = sum
				}
				for _, wt := range weights {
					total += wt
				}
				for i, wt := range weights {
					if got, want := w.pi[i], wt/total; got != want {
						t.Fatalf("%s %d/%d: π(%d) = %v, reference %v", name, root, qp, bound.Nodes[i], got, want)
					}
				}

				if _, diff := refStep(refMatrix(w), w.pi); !(diff < tol) {
					t.Fatalf("%s %d/%d: residual %v under Eq. 5's matrix, the scatter check passed", name, root, qp, diff)
				}
				w.Release()
			}
		}
	}
}
