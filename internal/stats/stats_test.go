package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} with divisor n-1 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 32.0 / 7.0
	if got := Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance([]float64{42}); got != 0 {
		t.Fatalf("Variance of single value = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %v, want 0", got)
	}
}

func TestStdDevConstant(t *testing.T) {
	if got := StdDev([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("StdDev of constants = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v; want 7, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{5, 1, 3})
	if err != nil || got != 3 {
		t.Fatalf("odd Median = %v, %v; want 3", got, err)
	}
	got, err = Median([]float64{4, 1, 3, 2})
	if err != nil || got != 2.5 {
		t.Fatalf("even Median = %v, %v; want 2.5", got, err)
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("Median(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v, want 0", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v, want +Inf", got)
	}
	if got := RelativeError(-90, -100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError negative truth = %v, want 0.1", got)
	}
}

func TestJaccard(t *testing.T) {
	a := map[string]bool{"x": true, "y": true}
	b := map[string]bool{"y": true, "z": true}
	if got := Jaccard(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Fatalf("Jaccard(∅,∅) = %v, want 1", got)
	}
	if got := Jaccard(a, nil); got != 0 {
		t.Fatalf("Jaccard(a,∅) = %v, want 0", got)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.995, 2.5758293035489004},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if got := NormalQuantile(0); !math.IsInf(got, -1) {
		t.Fatalf("NormalQuantile(0) = %v, want -Inf", got)
	}
	if got := NormalQuantile(1); !math.IsInf(got, 1) {
		t.Fatalf("NormalQuantile(1) = %v, want +Inf", got)
	}
	if got := NormalQuantile(-0.1); !math.IsNaN(got) {
		t.Fatalf("NormalQuantile(-0.1) = %v, want NaN", got)
	}
}

// Property: NormalCDF(NormalQuantile(p)) == p across the open interval.
func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRand(seed)
		p := r.Float64()*0.998 + 0.001 // keep away from 0/1
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZCritical(t *testing.T) {
	if got := ZCritical(0.95); math.Abs(got-1.959963984540054) > 1e-8 {
		t.Fatalf("ZCritical(0.95) = %v, want 1.96", got)
	}
	if got := ZCritical(0.90); math.Abs(got-1.6448536269514722) > 1e-8 {
		t.Fatalf("ZCritical(0.90) = %v, want 1.645", got)
	}
	if !math.IsNaN(ZCritical(0)) || !math.IsNaN(ZCritical(1.2)) {
		t.Fatal("ZCritical should be NaN outside (0,1)")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got, err := Percentile(xs, 0.5)
	if err != nil || got != 3 {
		t.Fatalf("Percentile 0.5 = %v, %v; want 3", got, err)
	}
	got, err = Percentile(xs, 0.25)
	if err != nil || got != 2 {
		t.Fatalf("Percentile 0.25 = %v, %v; want 2", got, err)
	}
	got, err = Percentile(xs, 0)
	if err != nil || got != 1 {
		t.Fatalf("Percentile 0 = %v, %v; want 1", got, err)
	}
	got, err = Percentile(xs, 1)
	if err != nil || got != 5 {
		t.Fatalf("Percentile 1 = %v, %v; want 5", got, err)
	}
	if _, err := Percentile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestWeightedIndexDegenerate(t *testing.T) {
	r := NewRand(1)
	if got := WeightedIndex(r, nil); got != -1 {
		t.Fatalf("WeightedIndex(empty) = %d, want -1", got)
	}
	if got := WeightedIndex(r, []float64{0, 0}); got != -1 {
		t.Fatalf("WeightedIndex(zeros) = %d, want -1", got)
	}
	if got := WeightedIndex(r, []float64{1, -1}); got != -1 {
		t.Fatalf("WeightedIndex(negative) = %d, want -1", got)
	}
	if got := WeightedIndex(r, []float64{0, 5, 0}); got != 1 {
		t.Fatalf("WeightedIndex(single mass) = %d, want 1", got)
	}
}

func TestWeightedIndexDistribution(t *testing.T) {
	r := NewRand(7)
	w := []float64{1, 3}
	counts := [2]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[WeightedIndex(r, w)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("weight-3 category frequency = %v, want ≈0.75", frac)
	}
}

func TestAliasDegenerate(t *testing.T) {
	if NewAlias(nil) != nil {
		t.Fatal("NewAlias(empty) should be nil")
	}
	if NewAlias([]float64{0, 0}) != nil {
		t.Fatal("NewAlias(zeros) should be nil")
	}
	for _, w := range [][]float64{
		{-1, 2},
		{math.NaN(), 1},
		{1, math.NaN()},
		{math.Inf(1), 1},
		{math.Inf(-1), 1},
		{math.MaxFloat64, math.MaxFloat64}, // finite weights, infinite sum
	} {
		if NewAlias(w) != nil {
			t.Fatalf("NewAlias(%v) should be nil", w)
		}
	}
	// Near-zero weights: the normalisation must survive weights at the edge
	// of floating-point underflow — the table builds, every draw lands in
	// range, and a dominant weight still dominates.
	tiny := NewAlias([]float64{1e-300, 1e-300, 1e-300})
	if tiny == nil {
		t.Fatal("NewAlias(tiny uniform) failed to build")
	}
	sm := NewSplitmix(3)
	for i := 0; i < 1000; i++ {
		if k := tiny.Pick(sm.Next()); k < 0 || k > 2 {
			t.Fatalf("tiny-weight draw out of range: %d", k)
		}
	}
	skew := NewAlias([]float64{1e-300, 1})
	if skew == nil {
		t.Fatal("NewAlias(tiny vs dominant) failed to build")
	}
	dominant := 0
	for i := 0; i < 1000; i++ {
		if skew.Pick(sm.Next()) == 1 {
			dominant++
		}
	}
	if dominant < 990 {
		t.Fatalf("dominant weight drew only %d/1000 against a 1e-300 rival", dominant)
	}
}

// The splitmix generator behind the flattened bootstrap: deterministic per
// seed, and its Lemire-style bounded draw stays in range over small and
// large bounds alike.
func TestSplitmixDeterministicBoundedDraws(t *testing.T) {
	a, b := NewSplitmix(42), NewSplitmix(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same-seed streams diverged at step %d: %d vs %d", i, x, y)
		}
	}
	c := NewSplitmix(43)
	if a.Next() == c.Next() {
		t.Fatal("different seeds produced identical output")
	}
	for _, n := range []int{1, 2, 3, 17, 1 << 20} {
		s := NewSplitmix(7)
		for i := 0; i < 2000; i++ {
			if k := s.Intn(n); k < 0 || k >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, k)
			}
		}
	}
	// Coarse uniformity: a bounded draw over 4 buckets stays within a few
	// percent of uniform over a long stream.
	s := NewSplitmix(9)
	counts := [4]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Intn(4)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("bucket %d frequency %v, want ≈0.25", i, frac)
		}
	}
}

func TestAliasDistribution(t *testing.T) {
	w := []float64{0.1, 0.2, 0.3, 0.4}
	a := NewAlias(w)
	if a == nil || a.N() != 4 {
		t.Fatal("alias table not built")
	}
	sm := NewSplitmix(11)
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[a.Pick(sm.Next())]++
	}
	for i, wi := range w {
		frac := float64(counts[i]) / n
		if math.Abs(frac-wi) > 0.01 {
			t.Errorf("category %d frequency = %v, want ≈%v", i, frac, wi)
		}
	}
}

// Property: for random weight vectors, alias sampling matches linear
// weighted sampling in distribution (coarse chi-square style check).
func TestAliasMatchesWeightedIndex(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRand(seed)
		n := 2 + r.Intn(8)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64() + 0.01
		}
		a := NewAlias(w)
		if a == nil {
			return false
		}
		total := Sum(w)
		const draws = 20000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[a.Pick(r.Uint64())]++
		}
		for i := range w {
			want := w[i] / total
			got := float64(counts[i]) / draws
			if math.Abs(got-want) > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// One draw as the engine makes it: a Splitmix word into Alias.Pick, over a
// table the size of the first simple dbpedia-sim query's 780 candidates.
func BenchmarkAliasPick(b *testing.B) {
	w := make([]float64, 780)
	r := NewRand(1)
	for i := range w {
		w[i] = r.ExpFloat64()
	}
	a := NewAlias(w)
	sm := NewSplitmix(1)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += a.Pick(sm.Next())
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}
