package estimate

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// twoPassMoE is the stratified CLT margin computed the direct way — per
// stratum, materialise the HT terms, take their means, then their centred
// second moments — the implementation MoEStratified had before it was
// rebuilt on Moments. It is the reference the moments form must reproduce.
func twoPassMoE(fn query.AggFunc, strata []Stratum, pol DivisorPolicy, confidence float64) (float64, bool) {
	policyMean := func(count bool) (float64, int) {
		acc, nCorrect := 0.0, 0
		for _, st := range strata {
			num, c := 0.0, 0
			for _, o := range st.Obs {
				if !o.Correct || o.Prob <= 0 {
					continue
				}
				c++
				if count {
					num += 1 / o.Prob
				} else {
					num += o.Value / o.Prob
				}
			}
			nCorrect += c
			switch {
			case pol != CorrectOnly && len(st.Obs) > 0:
				acc += num / float64(len(st.Obs))
			case pol == CorrectOnly && c > 0:
				acc += num / float64(c)
			}
		}
		return acc, nCorrect
	}
	variance := func(sT, cT []float64, ratio float64) float64 {
		n := float64(len(sT))
		var meanS, meanC float64
		for i := range sT {
			meanS += sT[i]
			meanC += cT[i]
		}
		meanS /= n
		meanC /= n
		var varS, varC, cov float64
		for i := range sT {
			ds, dc := sT[i]-meanS, cT[i]-meanC
			varS += ds * ds
			varC += dc * dc
			cov += ds * dc
		}
		varS /= n - 1
		varC /= n - 1
		cov /= n - 1
		if fn != query.Avg {
			return varS
		}
		return varS + ratio*ratio*varC - 2*ratio*cov
	}
	var ratio, denom float64
	if fn == query.Avg {
		s, nCorrect := policyMean(false)
		c, _ := policyMean(true)
		if nCorrect == 0 || c == 0 {
			return 0, false
		}
		ratio, denom = s/c, c
	}
	total, anyCorrect := 0.0, false
	var pooledS, pooledC []float64
	for _, st := range strata {
		if len(st.Obs) == 0 {
			continue
		}
		sT, cT := make([]float64, len(st.Obs)), make([]float64, len(st.Obs))
		for i, o := range st.Obs {
			if !o.Correct || o.Prob <= 0 {
				continue
			}
			anyCorrect = true
			cT[i] = 1 / o.Prob
			sT[i] = cT[i]
			if fn != query.Count {
				sT[i] = o.Value / o.Prob
			}
		}
		if len(sT) < 2 {
			pooledS, pooledC = append(pooledS, sT[0]), append(pooledC, cT[0])
			continue
		}
		total += variance(sT, cT, ratio) / float64(len(sT))
	}
	if !anyCorrect {
		return 0, false
	}
	switch {
	case len(pooledS) >= 2:
		total += variance(pooledS, pooledC, ratio) / float64(len(pooledS))
	case len(pooledS) == 1:
		total += pooledS[0] * pooledS[0]
	}
	if fn == query.Avg {
		total /= denom * denom
	}
	if total < 0 {
		total = 0
	}
	return stats.ZCritical(confidence) * math.Sqrt(total), true
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// The moments form reproduces the two-pass margin to ≤ 1e-9 on strata of 1,
// 2, 30 and 20 000 draws — including several single-draw strata (pooled),
// a lone single-draw stratum (its squared term), the AVG delta-method
// combination and the CorrectOnly divisor.
func TestMomentsMatchTwoPass(t *testing.T) {
	r := stats.NewRand(17)
	pop := newPopulation(r, 400, 0.3)
	single := func() Stratum {
		for {
			if obs := pop.draw(r, 1); obs[0].Correct {
				return Stratum{Weight: 0.1, Obs: obs}
			}
		}
	}
	sized := func(n int) Stratum { return Stratum{Weight: 0.2, Obs: pop.draw(r, n)} }
	cases := map[string][]Stratum{
		"one stratum of 20000":    {sized(20000)},
		"one stratum of 30":       {sized(30)},
		"one stratum of 2":        {sized(2)},
		"lone single draw":        {single()},
		"lone single among large": {sized(30), single(), sized(20000)},
		"pooled singles":          {single(), sized(2), single(), sized(30), single(), sized(20000)},
		"an empty stratum":        {sized(30), {Weight: 0.1}, sized(2)},
	}
	for name, strata := range cases {
		for _, fn := range []query.AggFunc{query.Count, query.Sum, query.Avg} {
			for _, pol := range []DivisorPolicy{SampleSize, CorrectOnly} {
				want, ok := twoPassMoE(fn, strata, pol, 0.95)
				got, err := MoEStratified(fn, strata, pol, GuaranteeConfig{Confidence: 0.95})
				if ok != (err == nil) {
					t.Errorf("%s %v %v: two-pass estimable=%v, moments err=%v", name, fn, pol, ok, err)
					continue
				}
				if d := relDiff(got, want); d > 1e-9 {
					t.Errorf("%s %v %v: moments ε %.12g, two-pass %.12g (rel diff %.2g)", name, fn, pol, got, want, d)
				}
				// The reduced form agrees with the observation form exactly:
				// it is the same code past the reduction.
				ms := make([]Moments, len(strata))
				for h, st := range strata {
					ms[h] = MomentsOf(fn, st.Obs)
				}
				if viaMoments, _ := MoEMoments(fn, ms, pol, GuaranteeConfig{Confidence: 0.95}); viaMoments != got {
					t.Errorf("%s %v %v: MoEMoments %v ≠ MoEStratified %v", name, fn, pol, viaMoments, got)
				}
				est, eerr := EstimateStratified(fn, strata, pol)
				viaMoments, merr := EstimateMoments(fn, ms, pol)
				if est != viaMoments || (eerr == nil) != (merr == nil) {
					t.Errorf("%s %v %v: EstimateMoments %v (%v) ≠ EstimateStratified %v (%v)",
						name, fn, pol, viaMoments, merr, est, eerr)
				}
			}
		}
	}
}

// Moments are combined with Chan et al.'s pairwise update on centred second
// moments. HT terms are 1/p: on a large candidate space they sit at 1e7 and
// beyond, where the textbook Σs² − (Σs)²/n loses the variance to
// cancellation. Merging ten rounds must still match the two-pass variance
// of the whole sample to 1e-9 — on a realistic sample (a few correct draws
// among zeros) and on an all-correct one whose spread is 1e-6 of its
// magnitude, where the raw-sums formula is shown to fail.
func TestMomentsStableAtLargeMagnitude(t *testing.T) {
	r := stats.NewRand(23)
	for name, gen := range map[string]func() Observation{
		"sparse": func() Observation {
			return Observation{Value: 50 + 50*r.Float64(), Prob: 1e-7 * (0.5 + r.Float64()), Correct: r.Float64() < 0.04}
		},
		"tight": func() Observation {
			return Observation{Value: 1 + 1e-6*r.Float64(), Prob: 1e-7 * (1 + 1e-6*r.Float64()), Correct: true}
		},
	} {
		obs := make([]Observation, 20000)
		for i := range obs {
			obs[i] = gen()
		}
		var merged Moments
		for lo := 0; lo < len(obs); lo += 2000 {
			merged.Merge(MomentsOf(query.Sum, obs[lo:lo+2000]))
		}
		whole := MomentsOf(query.Sum, obs)

		// Two-pass reference over the whole sample, and the raw sums.
		n := float64(len(obs))
		terms := func(o Observation) (float64, float64) {
			if !o.Correct {
				return 0, 0
			}
			return o.Value / o.Prob, 1 / o.Prob
		}
		var sumS, sumC, sumSS float64
		for _, o := range obs {
			s, c := terms(o)
			sumS += s
			sumC += c
			sumSS += s * s
		}
		meanS, meanC := sumS/n, sumC/n
		var m2s, m2c, csc float64
		for _, o := range obs {
			s, c := terms(o)
			m2s += (s - meanS) * (s - meanS)
			m2c += (c - meanC) * (c - meanC)
			csc += (s - meanS) * (c - meanC)
		}
		if avg := sumS / float64(whole.Correct); avg < 9e6 {
			t.Fatalf("%s: correct draws' terms average %.3g, want magnitude 1e7 or more", name, avg)
		}
		for _, m := range []Moments{whole, merged} {
			if m.N != len(obs) {
				t.Fatalf("%s: N = %d, want %d", name, m.N, len(obs))
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{{"SumS", m.SumS, sumS}, {"M2S", m.M2S, m2s}, {"M2C", m.M2C, m2c}, {"CSC", m.CSC, csc}} {
				if d := relDiff(c.got, c.want); d > 1e-9 {
					t.Errorf("%s: %s = %.15g, two-pass %.15g (rel diff %.2g)", name, c.what, c.got, c.want, d)
				}
			}
		}
		if name == "tight" {
			if d := relDiff(sumSS-sumS*sumS/n, m2s); d < 1e-6 {
				t.Errorf("raw sums are accurate to %.2g on the tight fixture; it no longer shows the hazard", d)
			}
		}
	}
}

// The retained bootstrap reference and the served closed form estimate the
// same σ: over 240 seeded observation sets (COUNT, SUM, AVG; 200–20 000
// draws; 2–10 % correct) the median of MoESeeded / closed-form ε lies in
// [0.95, 1.05]. Only sets with at least 30 correct draws count — the
// engine's MinCorrect gate computes no margin below that, and there the
// bootstrap reads low (0.89–0.94 at 4–20 correct draws: each of its T small
// samples holds a third of them).
func TestClosedFormMatchesBLBReference(t *testing.T) {
	r := stats.NewRand(5)
	sizes := []int{200, 500, 1000, 2000, 5000, 20000}
	fns := []query.AggFunc{query.Count, query.Sum, query.Avg}
	cfg := DefaultGuarantee()
	var ratios []float64
	for set := 0; len(ratios) < 240; set++ {
		pop := newPopulation(r, 300+r.Intn(700), 0.02+0.08*r.Float64())
		obs := pop.draw(r, sizes[set%len(sizes)])
		fn := fns[set/len(sizes)%len(fns)]
		if MomentsOf(fn, obs).Correct < 30 {
			continue
		}
		blb, err := MoESeeded(fn, obs, SampleSize, cfg, int64(set)+1)
		if err != nil {
			t.Fatalf("set %d: MoESeeded: %v", set, err)
		}
		closed, err := MoEStratified(fn, []Stratum{{Weight: 1, Obs: obs}}, SampleSize, cfg)
		if err != nil || closed <= 0 {
			t.Fatalf("set %d: closed form ε = %v, %v", set, closed, err)
		}
		ratios = append(ratios, blb/closed)
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	t.Logf("%d sets: BLB/closed-form ε median %.4f, p10 %.4f, p90 %.4f",
		len(ratios), med, ratios[len(ratios)/10], ratios[len(ratios)*9/10])
	if med < 0.95 || med > 1.05 {
		t.Fatalf("median BLB/closed-form ε = %.4f, want within [0.95, 1.05]", med)
	}
}

// The federation wire: a member's moments survive JSON bit for bit.
func TestWireRoundTrip(t *testing.T) {
	r := stats.NewRand(9)
	pop := newPopulation(r, 200, 0.2)
	for _, fn := range []query.AggFunc{query.Count, query.Sum} {
		m := MomentsOf(fn, pop.draw(r, 500))
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: a real sample's moments must validate: %v", fn, err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Moments
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != m {
			t.Errorf("%v: round trip changed the moments:\n got %+v\nwant %+v", fn, back, m)
		}
	}
	if err := (Moments{N: 30}).Validate(); err != nil {
		t.Errorf("a sample without a correct draw is valid: %v", err)
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	good := Moments{N: 10, Correct: 2, SumS: 40, SumC: 4, M2S: 128, M2C: 1.6, CSC: 12.8}
	if err := good.Validate(); err != nil {
		t.Fatalf("fixture must validate: %v", err)
	}
	mutate := func(f func(*Moments)) Moments { m := good; f(&m); return m }
	bad := map[string]Moments{
		"NaN sum":                    mutate(func(m *Moments) { m.SumS = math.NaN() }),
		"infinite square":            mutate(func(m *Moments) { m.M2S = math.Inf(1) }),
		"infinite cross moment":      mutate(func(m *Moments) { m.CSC = math.Inf(-1) }),
		"correct > n":                mutate(func(m *Moments) { m.Correct = 11 }),
		"negative n":                 {N: -1},
		"negative correct":           mutate(func(m *Moments) { m.Correct = -1 }),
		"negative Σ(s−s̄)²":          mutate(func(m *Moments) { m.M2S = -1 }),
		"negative Σ(c−c̄)²":          mutate(func(m *Moments) { m.M2C = -1e-9 }),
		"probability above 1":        mutate(func(m *Moments) { m.SumC = 1.5 }),
		"sums without a correct":     {N: 10, SumS: 3},
		"squares without a correct":  {N: 10, M2C: 3},
		"Σ1/p without a correct":     {N: 10, SumC: 2},
		"cross term without correct": {N: 10, CSC: 1},
	}
	for name, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, m)
		}
	}
	// Numbers JSON cannot carry as float64 never reach Validate.
	var m Moments
	if err := json.Unmarshal([]byte(`{"n":10,"correct":2,"s":1e999}`), &m); err == nil {
		t.Error("an overflowing number must fail to decode")
	}
}

func TestMomentsSigma(t *testing.T) {
	obs := []Observation{
		{Value: 10, Prob: 0.5, Correct: true},
		{Value: 10, Prob: 0.5, Correct: true},
	}
	if s := MomentsOf(query.Sum, obs).Sigma(); s != 0 {
		t.Fatalf("identical terms: sigma = %v, want 0", s)
	}
	obs = append(obs, Observation{Value: 90, Prob: 0.1, Correct: true})
	if s := MomentsOf(query.Sum, obs).Sigma(); s <= 0 {
		t.Fatalf("spread terms: sigma = %v, want > 0", s)
	}
	if s := MomentsOf(query.Sum, obs[:1]).Sigma(); s != 0 {
		t.Fatalf("single draw: sigma = %v, want 0", s)
	}
}
