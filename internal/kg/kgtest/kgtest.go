// Package kgtest provides the shared hand-built fixture graphs used by
// tests across kgaq: the paper's Figure 1 knowledge graph and a few small
// synthetic shapes. Keeping them here lets the walk, similarity, estimator
// and engine tests all assert against the same well-understood instance.
package kgtest

import (
	"fmt"

	"kgaq/internal/kg"
)

// Figure1 reconstructs the knowledge graph of Figure 1/3 of the paper:
// German automobiles connected to Germany through structurally different but
// semantically similar paths, one semantically distant answer (KIA K5 via
// its designer's nationality), and assorted non-automobile neighbours.
//
// Node names follow the paper: Germany, BMW_320, BMW_X6, Porsche_911,
// Audi_TT, Lamando, KIA_K5, Volkswagen, Porsche, EA211_TSI, Peter_Schreyer,
// plus Angela_Merkel and Berlin as irrelevant neighbours. One product edge
// (Volkswagen product Lamando) keeps the canonical query predicate in the
// graph vocabulary, exactly as in DBpedia.
//
// With the Figure1Clusters embedding and τ = 0.85, the correct answers to
// "cars produced in Germany" are the five of Figure1Answers, and the paper's
// running AVG(price) ground truth $44,072.16 holds.
func Figure1() *kg.Graph {
	b := kg.NewBuilder()

	germany := b.AddNode("Germany", "Country")
	bmw320 := b.AddNode("BMW_320", "Automobile")
	bmwX6 := b.AddNode("BMW_X6", "Automobile")
	porsche911 := b.AddNode("Porsche_911", "Automobile")
	audiTT := b.AddNode("Audi_TT", "Automobile")
	lamando := b.AddNode("Lamando", "Automobile")
	kiaK5 := b.AddNode("KIA_K5", "Automobile")
	vw := b.AddNode("Volkswagen", "Company")
	porscheCo := b.AddNode("Porsche", "Company")
	engine := b.AddNode("EA211_TSI", "Device")
	schreyer := b.AddNode("Peter_Schreyer", "Person")
	merkel := b.AddNode("Angela_Merkel", "Person")
	berlin := b.AddNode("Berlin", "City")

	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("kgtest: %v", err))
		}
	}

	// Direct and indirect "produced in Germany" paths.
	must(b.AddEdge(bmw320, "assembly", germany))
	must(b.AddEdge(bmwX6, "assembly", germany))
	must(b.AddEdge(porsche911, "manufacturer", porscheCo))
	must(b.AddEdge(porscheCo, "country", germany))
	must(b.AddEdge(audiTT, "assembly", vw))
	must(b.AddEdge(vw, "country", germany))
	must(b.AddEdge(vw, "product", lamando))
	must(b.AddEdge(lamando, "designCompany", vw))
	must(b.AddEdge(lamando, "engine", engine))
	must(b.AddEdge(engine, "madeBy", vw))
	// The semantically distant answer: KIA K5 via its designer.
	must(b.AddEdge(kiaK5, "designer", schreyer))
	must(b.AddEdge(schreyer, "nationality", germany))
	// Irrelevant neighbours of Germany.
	must(b.AddEdge(merkel, "citizenOf", germany))
	must(b.AddEdge(berlin, "capitalOf", germany))

	// Five correct-answer prices summing to 5 × $44,072.16.
	must(b.SetAttr(bmw320, "price", 35_000.00))
	must(b.SetAttr(bmwX6, "price", 55_000.00))
	must(b.SetAttr(porsche911, "price", 64_300.00))
	must(b.SetAttr(audiTT, "price", 42_000.00))
	must(b.SetAttr(lamando, "price", 24_060.80))
	must(b.SetAttr(kiaK5, "price", 24_990.00))

	must(b.SetAttr(bmwX6, "horsepower", 335))
	must(b.SetAttr(porsche911, "horsepower", 379))
	must(b.SetAttr(bmw320, "fuel_economy", 28))
	must(b.SetAttr(bmwX6, "fuel_economy", 22))
	must(b.SetAttr(audiTT, "fuel_economy", 26))

	return b.Build()
}

// Figure1Affinities is the oracle-embedding affinity specification matching
// the predicate similarities quoted in the paper (Example 3 and Figure 3):
// sim(assembly, product) = 0.98, sim(country, product) = 0.81, and the
// KIA K5 path designer→nationality lands at geometric mean ≈ 0.82, below
// the τ = 0.85 threshold. All predicates share one "producedIn" cluster
// whose canonical predicate is product. embtest.Figure1Model turns this into
// an embedding.
func Figure1Affinities() map[string]float64 {
	return map[string]float64{
		"product":       1.00,
		"assembly":      0.98,
		"manufacturer":  0.90,
		"madeBy":        0.50,
		"nationality":   0.84,
		"country":       0.81,
		"designer":      0.80,
		"designCompany": 0.79,
		"engine":        0.20,
		"citizenOf":     0.14,
		"capitalOf":     0.12,
	}
}

// Figure1Answers lists the automobile names that are semantically correct
// answers to "cars produced in Germany" at τ = 0.85 on the fixture (all but
// KIA_K5, whose only connection is designer→nationality).
func Figure1Answers() []string {
	return []string{"BMW_320", "BMW_X6", "Porsche_911", "Audi_TT", "Lamando"}
}

// Figure1AvgPrice is the τ-GT of the running example query.
const Figure1AvgPrice = 44_072.16

// Figure1SumPrice is the τ-GT for SUM(price) over the correct answers.
const Figure1SumPrice = 5 * Figure1AvgPrice

// Chain builds a simple path graph v0 -p-> v1 -p-> ... of the given length
// with one type per node ("T0", "T1", ...), useful for walk-convergence and
// subgraph-bound tests.
func Chain(length int) *kg.Graph {
	b := kg.NewBuilder()
	prev := b.AddNode("v0", "T0")
	for i := 1; i <= length; i++ {
		cur := b.AddNode(fmt.Sprintf("v%d", i), fmt.Sprintf("T%d", i))
		if err := b.AddEdge(prev, "next", cur); err != nil {
			panic(err)
		}
		prev = cur
	}
	return b.Build()
}

// Star builds a hub with n spokes, all edges hub -spoke-> leaf_i, each leaf
// typed "Leaf" and carrying attribute "val" = i.
func Star(n int) *kg.Graph {
	b := kg.NewBuilder()
	hub := b.AddNode("hub", "Hub")
	for i := 0; i < n; i++ {
		leaf := b.AddNode(fmt.Sprintf("leaf%d", i), "Leaf")
		if err := b.AddEdge(hub, "spoke", leaf); err != nil {
			panic(err)
		}
		if err := b.SetAttr(leaf, "val", float64(i)); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// OneWay returns g with the half-edge from→to hidden: to still lists from
// as a neighbour, from no longer lists to. A stored edge always shows at
// both ends, so this is a data fault — the one input on which the
// semantic-aware walk is not a reversible chain and its closed-form
// stationary distribution is wrong.
func OneWay(g kg.ReadGraph, from, to kg.NodeID) kg.ReadGraph {
	return oneWay{g, from, to}
}

type oneWay struct {
	kg.ReadGraph
	from, to kg.NodeID
}

func (o oneWay) Neighbors(u kg.NodeID) []kg.HalfEdge {
	hes := o.ReadGraph.Neighbors(u)
	if u != o.from {
		return hes
	}
	var out []kg.HalfEdge
	for _, he := range hes {
		if he.To != o.to {
			out = append(out, he)
		}
	}
	return out
}
