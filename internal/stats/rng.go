package stats

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic *rand.Rand seeded with seed. All random
// behaviour in kgaq flows through explicitly seeded generators so that
// experiments are reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Splitmix is a splitmix64 generator: a single multiply-xorshift chain per
// output, no allocation, no locking, and an 8-byte state. It is the engine's
// one draw stream — one word per alias-table draw (Alias.Pick) on every
// semantic-sampling path — and the bootstrap's resampling stream; math/rand
// cost ~45 % of warm query CPU in either place, plus a 4.9 KB source to
// seed per execution. Not for cryptographic or statistical-testing use — its
// output quality is ample for categorical draws and bootstrap index
// selection, where only uniformity over a modest range matters.
//
// The zero value is a valid generator (a fixed stream); seed it via
// NewSplitmix for a reproducible stream keyed to an experiment seed.
type Splitmix struct {
	state uint64
}

// NewSplitmix returns a generator whose stream is determined by seed.
func NewSplitmix(seed int64) Splitmix {
	return Splitmix{state: uint64(seed)}
}

// Next returns the next 64 uniform bits.
func (s *Splitmix) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n) for 0 < n ≤ 2³¹ using Lemire's
// multiply-shift range reduction (bias < 2⁻³² per draw, immaterial against
// bootstrap resampling noise and far cheaper than a rejection loop).
func (s *Splitmix) Intn(n int) int {
	return int((uint64(uint32(s.Next())) * uint64(n)) >> 32)
}

// WeightedIndex draws an index in [0,len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise -1 is returned.
func WeightedIndex(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return -1
		}
		total += w
	}
	if total <= 0 {
		return -1
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1 // guard against floating point slack
}

// Alias implements Walker's alias method for O(1) categorical sampling from
// a fixed discrete distribution. Building the table is O(n); it is the
// workhorse behind continuous sampling, where the engine draws thousands of
// i.i.d. answers from the stationary distribution π′. Each category is one
// packed 8-byte slot, and a draw costs one uniform 64-bit word (Pick).
type Alias struct {
	slots []aliasSlot
}

// aliasSlot is one column of the table: the column's own category when the
// coin, a uniform 32-bit word, falls below cut, else alias. A full column
// aliases itself.
type aliasSlot struct {
	cut   uint32
	alias uint32
}

// NewAlias builds an alias table for the given weights. Weights must be
// finite and non-negative with a positive finite sum, and there must be
// fewer than 2³² of them; NewAlias returns nil otherwise (a NaN or an
// infinite weight included).
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 || uint64(n) > math.MaxUint32 {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		if !(w >= 0) { // NaN included
			return nil
		}
		total += w
	}
	if !(total > 0 && total <= math.MaxFloat64) { // NaN and +Inf included
		return nil
	}

	a := &Alias{slots: make([]aliasSlot, n)}
	scaled := make([]float64, n)
	// work holds two stacks of category indices: the under-full columns
	// grow up from 0, the full ones down from n.
	work := make([]uint32, n)
	small, large := 0, n
	push := func(i uint32) {
		if scaled[i] < 1 {
			work[small] = i
			small++
		} else {
			large--
			work[large] = i
		}
	}
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		push(uint32(i))
	}
	for small > 0 && large < n {
		small--
		s, l := work[small], work[large]
		large++
		// scaled[s] < 1, so the coin's threshold fits 32 bits.
		a.slots[s] = aliasSlot{cut: uint32(scaled[s] * (1 << 32)), alias: l}
		scaled[l] = scaled[l] + scaled[s] - 1
		push(l)
	}
	// What is left is full up to floating-point slack.
	for _, i := range work[:small] {
		a.slots[i] = aliasSlot{cut: math.MaxUint32, alias: i}
	}
	for _, i := range work[large:] {
		a.slots[i] = aliasSlot{cut: math.MaxUint32, alias: i}
	}
	return a
}

// Pick maps one uniform 64-bit word to a category. Its high 32 bits choose
// the column by Lemire's multiply-shift (the reduction Splitmix.Intn
// applies to its low 32 bits); its low 32 bits are the coin against the
// column's cut. Both halves are 32-bit, so a
// draw is biased: a column takes ⌊2³²/n⌋ or ⌈2³²/n⌉ of the high words,
// off 1/n by at most n·2⁻³² relative (2.5·10⁻⁷ at 1 080 categories), and a
// cut truncates its probability to a multiple of 2⁻³². Both are far below
// the sampling error of any sample the engine draws.
func (a *Alias) Pick(u uint64) int {
	i := (u >> 32) * uint64(len(a.slots)) >> 32
	s := a.slots[i]
	if uint32(u) < s.cut {
		return int(i)
	}
	return int(s.alias)
}

// N returns the number of categories in the table.
func (a *Alias) N() int { return len(a.slots) }
