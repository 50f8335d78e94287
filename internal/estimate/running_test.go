package estimate

import (
	"math/rand"
	"testing"

	"kgaq/internal/query"
)

// The running accumulator is MomentsOf bit for bit: at every prefix of 200
// seeded observation lists — HT-term magnitudes from 1 to 1e7, correct
// shares 0, 0.04, 0.5 and 1 — Running fed the prefix's correct draws in
// list order and read out over the prefix length returns MomentsOf of the
// prefix, for COUNT's terms and for SUM's. Reading out at arbitrary chunk
// boundaries only (a refinement loop's rounds) changes nothing: a read-out
// does not touch the accumulator. Moments.Estimate then reports what
// Estimate reports on the list itself, value and error, for every aggregate
// with a moments form under both divisor policies.
func TestRunningMatchesMomentsOf(t *testing.T) {
	shares := []float64{0, 0.04, 0.5, 1}
	fns := []query.AggFunc{query.Count, query.Sum, query.Avg}
	for list := 0; list < 200; list++ {
		r := rand.New(rand.NewSource(int64(list) + 1))
		share := shares[list%len(shares)]
		magnitude := []float64{1, 1e2, 1e4, 1e7}[(list/len(shares))%4]
		obs := make([]Observation, 20+r.Intn(300))
		for i := range obs {
			obs[i] = Observation{
				Value:   magnitude * (0.5 + r.Float64()),
				Prob:    0.0005 + 0.01*r.Float64(),
				Correct: r.Float64() < share,
			}
		}
		for _, fn := range fns {
			var every, chunked Running
			nextRead := 1 + r.Intn(40)
			for n := 1; n <= len(obs); n++ {
				if o := obs[n-1]; o.Correct {
					c := 1 / o.Prob
					s := c
					if fn != query.Count {
						s = o.Value / o.Prob
					}
					every.Add(s, c)
					chunked.Add(s, c)
				}
				want := MomentsOf(fn, obs[:n])
				if got := every.Moments(n); got != want {
					t.Fatalf("list %d, %v, prefix %d: running %+v, MomentsOf %+v", list, fn, n, got, want)
				}
				if n == nextRead || n == len(obs) {
					if got := chunked.Moments(n); got != want {
						t.Fatalf("list %d, %v, chunk ending at %d: running %+v, MomentsOf %+v", list, fn, n, got, want)
					}
					nextRead = n + 1 + r.Intn(40)
				}
				for _, pol := range []DivisorPolicy{SampleSize, CorrectOnly} {
					wantV, wantErr := Estimate(fn, obs[:n], pol)
					gotV, gotErr := want.Estimate(fn, pol)
					if gotV != wantV || gotErr != wantErr {
						t.Fatalf("list %d, %v/%v, prefix %d: Moments.Estimate (%v, %v), Estimate (%v, %v)",
							list, fn, pol, n, gotV, gotErr, wantV, wantErr)
					}
				}
			}
			if every.Correct() != MomentsOf(fn, obs).Correct {
				t.Fatalf("list %d, %v: Running.Correct %d, MomentsOf %d", list, fn, every.Correct(), MomentsOf(fn, obs).Correct)
			}
		}
	}
}
