package walk

import (
	"math"
	"testing"

	"kgaq/internal/kg"
	"kgaq/internal/stats"
)

// chiSquare is Pearson's statistic of counts (n draws) against probs, with
// categories binned in index order until each bin expects at least five
// draws; the last bin absorbs a short tail. It returns the statistic and
// its degrees of freedom.
func chiSquare(counts []int, probs []float64, n int) (float64, int) {
	type bin struct{ obs, exp float64 }
	var bins []bin
	var cur bin
	for i, p := range probs {
		cur.obs += float64(counts[i])
		cur.exp += p * float64(n)
		if cur.exp >= 5 {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	if len(bins) == 0 {
		bins = append(bins, cur)
	} else {
		bins[len(bins)-1].obs += cur.obs
		bins[len(bins)-1].exp += cur.exp
	}
	stat := 0.0
	for _, b := range bins {
		stat += (b.obs - b.exp) * (b.obs - b.exp) / b.exp
	}
	return stat, len(bins) - 1
}

// chiSquareCritical is the upper 10⁻⁶ quantile of χ²(dof) by the
// Wilson–Hilferty approximation: a sampler that fits π′ passes it with
// near certainty, and a biased one on these sample sizes fails it by
// orders of magnitude.
func chiSquareCritical(dof int) float64 {
	k := float64(dof)
	z := stats.NormalQuantile(1 - 1e-6)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// drawTables are the distributions the draw stream is fitted on: one
// category, two, the 780 candidates of the first simple dbpedia-sim query,
// and one slot holding 0.999 of the mass among 10⁴.
func drawTables(t *testing.T) map[string][]float64 {
	t.Helper()
	g, calc, root, pred, types := stageBuildInput(t)
	w, err := New(g, calc, root, pred, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Release()
	converge(t, w)
	d, err := w.AnswerDistribution(types)
	if err != nil {
		t.Fatal(err)
	}
	skew := make([]float64, 10_000)
	skew[0] = 0.999
	for i := 1; i < len(skew); i++ {
		skew[i] = 0.001 / float64(len(skew)-1)
	}
	return map[string][]float64{
		"n=1":            {1},
		"n=2":            {0.3, 0.7},
		"dbpedia-simple": d.Probs,
		"skew":           skew,
	}
}

// Both draw paths — a Splitmix word per Alias.Pick, as the engine draws,
// and AnswerDist.Sample over a math/rand source — fit π′ under a
// chi-square test on every table.
func TestPickChiSquare(t *testing.T) {
	const n = 200_000
	for name, probs := range drawTables(t) {
		a := stats.NewAlias(probs)
		if a == nil || a.N() != len(probs) {
			t.Fatalf("%s: alias table not built", name)
		}
		sm := stats.NewSplitmix(17)
		viaPick := make([]int, len(probs))
		for i := 0; i < n; i++ {
			viaPick[a.Pick(sm.Next())]++
		}
		d := &AnswerDist{Answers: make([]kg.NodeID, len(probs)), Probs: probs}
		viaSample := make([]int, len(probs))
		for _, k := range d.Sample(stats.NewRand(17), n) {
			viaSample[k]++
		}
		for path, counts := range map[string][]int{"Pick": viaPick, "Sample": viaSample} {
			stat, dof := chiSquare(counts, probs, n)
			if dof == 0 {
				if counts[0] != n {
					t.Errorf("%s via %s: %d of %d draws on the only category", name, path, counts[0], n)
				}
				continue
			}
			if crit := chiSquareCritical(dof); stat > crit {
				t.Errorf("%s via %s: χ² = %.1f over %d dof, critical %.1f", name, path, stat, dof, crit)
			}
		}
	}
}
