package semsim

import (
	"context"
	"testing"

	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
)

// Micro-benchmarks of the similarity layer: cached predicate similarity,
// exhaustive path enumeration (SSB's core), and batched validation.

func benchCalc(b *testing.B) (*Calculator, *kg.Graph) {
	b.Helper()
	g := kgtest.Figure1()
	c, err := NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		b.Fatal(err)
	}
	return c, g
}

func BenchmarkPredSimCached(b *testing.B) {
	c, g := benchCalc(b)
	p1 := g.PredByName("product")
	p2 := g.PredByName("assembly")
	c.PredSim(p1, p2) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredSim(p1, p2)
	}
}

func BenchmarkExhaustiveN3(b *testing.B) {
	c, g := benchCalc(b)
	us := g.NodeByName("Germany")
	pred := g.PredByName("product")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exhaustive(g, c, us, pred, 3)
	}
}

func BenchmarkValidateBatch(b *testing.B) {
	c, g := benchCalc(b)
	us := g.NodeByName("Germany")
	pred := g.PredByName("product")
	var answers []kg.NodeID
	auto := g.TypeByName("Automobile")
	for _, u := range g.BoundedSubgraph(us, 3).Nodes {
		if g.HasType(u, auto) {
			answers = append(answers, u)
		}
	}
	correct := make([]bool, len(answers))
	cfg := ValidatorConfig{MaxLen: 3, Tau: 0.85}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Validate(ctx, g, c, us, pred, answers, correct, cfg)
	}
}
