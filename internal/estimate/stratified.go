package estimate

import (
	"sort"
	"sync"

	"kgaq/internal/query"
)

// This file implements the stratified combiner (DESIGN.md "Federation:
// remote strata"): per-stratum samples are disjoint strata of the
// candidate-answer space, each drawn from its own conditional distribution
// π′|stratum, and the merged estimate is the classic stratified
// Horvitz–Thompson form
//
//	V̂ = Σ_h  f̂(S_h),   f̂(S_h) = (1/n_h) Σ_{i∈S_h} v_i·1{correct}/p_i
//
// where p_i = π′(i)/w_h is the draw probability conditional on the stratum
// and w_h = Σ π′(answers of h) is the stratum's inclusion probability. The
// inclusion probability is folded into the conditional p_i carried on each
// Observation, so each stratum term estimates its stratum total
// E[f̂(S_h)] = Σ_{u∈A_h} v_u·1{correct} without bias, whatever n_h the
// allocator chose — the merge is unbiased for COUNT and SUM and consistent
// for AVG, exactly the properties the unstratified estimators carry.

// Stratum is one stratum's sample: its inclusion probability and the
// observations drawn from its conditional distribution.
type Stratum struct {
	// Weight is the stratum's inclusion probability w_h ∈ (0, 1]; the
	// weights of a query's strata sum to 1.
	Weight float64
	// Obs are the draws from the stratum's conditional distribution
	// (Observation.Prob is conditional on the stratum).
	Obs []Observation
}

// Regroup reassembles flat observations into strata using the Stratum and
// StratumWeight fields, in ascending stratum order. Observations with a
// zero StratumWeight (the unstratified default) land in one stratum of weight
// 1, so a regrouped-then-combined unstratified sample reproduces the plain
// estimator.
func Regroup(obs []Observation) []Stratum {
	byID := map[int]*Stratum{}
	var ids []int
	for _, o := range obs {
		w := o.StratumWeight
		if w <= 0 {
			w = 1
		}
		st, ok := byID[o.Stratum]
		if !ok {
			st = &Stratum{Weight: w}
			byID[o.Stratum] = st
			ids = append(ids, o.Stratum)
		}
		st.Obs = append(st.Obs, o)
	}
	sort.Ints(ids)
	out := make([]Stratum, len(ids))
	for k, id := range ids {
		out[k] = *byID[id]
	}
	return out
}

// EstimateStratified computes the merged point estimate over strata. COUNT and SUM merge as Σ_h f̂(S_h) over conditional-probability
// HT means; AVG is the ratio of the stratified SUM and COUNT (each stratum
// is reduced to its moments, see EstimateMoments); MAX and MIN are the
// extreme over every stratum's correct observations (weights play no role
// for extremes).
//
// A stratum without draws contributes zero, biasing the merge low by that
// stratum's share — callers own coverage. The engine guarantees it by
// flooring the first round at the stratum count (core's firstSize) and
// every later allocation at one draw per stratum (AllocateDraws); a caller
// driving this combiner directly with fewer draws than strata inherits the
// bias.
func EstimateStratified(fn query.AggFunc, strata []Stratum, pol DivisorPolicy) (float64, error) {
	if fn == query.Max || fn == query.Min {
		total := 0
		for _, st := range strata {
			total += len(st.Obs)
		}
		flat := make([]Observation, 0, total)
		for _, st := range strata {
			flat = append(flat, st.Obs...)
		}
		return Estimate(fn, flat, pol)
	}
	return accOfStrata(fn, strata, pol).estimate(fn, pol)
}

// MoEStratified estimates the margin of error of the stratified estimate
// with the closed-form stratified CLT variance: each stratum is reduced to
// its moments in one O(|S_h|) pass and the margin is MoEMoments of those.
// The strata localise the heavy tail of the pooled sample's HT terms, and
// each stratum term is a plain mean of i.i.d. draws whose variance the
// within-stratum s_h captures directly. The strata slice does not escape,
// so a caller's one-stratum view of an unstratified sample stays on its
// stack.
func MoEStratified(fn query.AggFunc, strata []Stratum, pol DivisorPolicy,
	cfg GuaranteeConfig) (float64, error) {

	return accOfStrata(fn, strata, pol).margin(fn, cfg.withDefaults().Confidence)
}

// StratumStats carries one stratum's allocation inputs.
type StratumStats struct {
	// Weight is the stratum's inclusion probability w_h.
	Weight float64
	// Sigma is the stratum's per-draw HT-term standard deviation (see
	// Moments.Sigma); zero means no variance signal yet.
	Sigma float64
}

// AllocateDraws splits a round's additional draws across strata. With
// variance signals it uses Neyman allocation — shares proportional to
// w_h·σ_h, which minimises the variance of the merged estimate for a fixed
// total — mixed with a defensiveShare of proportional allocation, and falls
// back to proportional allocation (shares ∝ w_h, the behaviour of
// unstratified sampling in expectation) while σ is unknown.
// Every stratum is floored at one draw whenever total ≥ len(stats); when
// total is smaller than the stratum count the floors cannot hold and the
// highest-share strata win the draws — callers needing full coverage (the
// stratified estimator does; see EstimateStratified) must size the round
// at len(stats) or more, as the federation coordinator's allocate does. The returned counts
// sum exactly to total (largest-remainder rounding, deterministic).
func AllocateDraws(total int, stats []StratumStats) []int {
	return AllocateDrawsInto(nil, total, stats)
}

// defensiveShare is the part of every Neyman round allocated in proportion
// to the stratum weights. σ̂ is estimated from the draws so far, and a
// stratum whose draws have not yet hit one of its few correct answers reads
// σ̂ = 0: pure Neyman then gives it the one-draw floor every round, so it
// never finds them, and the merged estimate is biased low by its whole
// total under an interval that knows nothing of it. A defensive share keeps
// every stratum's sample growing with the total, at a variance cost of at
// most 1/(1−defensiveShare) of Neyman's.
const defensiveShare = 0.1

// allocScratch is the pooled working memory of AllocateDrawsInto: the
// Neyman shares and the largest-remainder worklist, one slot per stratum.
type allocScratch struct {
	shares []float64
	fracs  []frac
}

type frac struct {
	idx int
	rem float64
}

var allocPool = sync.Pool{New: func() any { return new(allocScratch) }}

// AllocateDrawsInto is AllocateDraws writing into dst (reused when its
// capacity suffices) so a caller allocating every round reuses one
// buffer across rounds; the internal share/remainder scratch is
// pooled, so a warm call allocates nothing.
func AllocateDrawsInto(dst []int, total int, stats []StratumStats) []int {
	if cap(dst) < len(stats) {
		dst = make([]int, len(stats))
	}
	out := dst[:len(stats)]
	for i := range out {
		out[i] = 0
	}
	if total <= 0 || len(stats) == 0 {
		return out
	}
	sc := allocPool.Get().(*allocScratch)
	defer allocPool.Put(sc)
	sc.shares = grow(sc.shares, len(stats))
	shares := sc.shares
	neyman, weight := 0.0, 0.0
	for _, st := range stats {
		neyman += st.Weight * st.Sigma
		weight += st.Weight
	}
	sum := 0.0
	for i, st := range stats {
		if neyman > 0 {
			shares[i] = (1-defensiveShare)*st.Weight*st.Sigma/neyman + defensiveShare*st.Weight/weight
		} else {
			shares[i] = st.Weight // no variance signal: proportional allocation
		}
		sum += shares[i]
	}
	if sum <= 0 {
		out[0] = total
		return out
	}

	// Floors first, then largest-remainder on what's left.
	remaining := total
	if total >= len(stats) {
		for i := range out {
			out[i] = 1
		}
		remaining = total - len(stats)
	}
	if cap(sc.fracs) < len(stats) {
		sc.fracs = make([]frac, len(stats))
	}
	fracs := sc.fracs[:len(stats)]
	assigned := 0
	for i := range stats {
		exact := float64(remaining) * shares[i] / sum
		whole := int(exact)
		out[i] += whole
		assigned += whole
		fracs[i] = frac{idx: i, rem: exact - float64(whole)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for k := 0; assigned < remaining; k++ {
		out[fracs[k%len(fracs)].idx]++
		assigned++
	}
	return out
}
