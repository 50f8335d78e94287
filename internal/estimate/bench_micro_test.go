package estimate

import (
	"testing"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// Micro-benchmarks of the estimation layer: point estimates and the BLB
// margin of error, which dominate the guarantee step (S3).

func benchObservations(b *testing.B, n int) []Observation {
	b.Helper()
	r := stats.NewRand(7)
	pop := newPopulation(r, 60, 0.7)
	return pop.draw(r, n)
}

func BenchmarkEstimateSum1k(b *testing.B) {
	obs := benchObservations(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(query.Sum, obs, SampleSize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateAvg1k(b *testing.B) {
	obs := benchObservations(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(query.Avg, obs, SampleSize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMoEBLB1k(b *testing.B) {
	obs := benchObservations(b, 1000)
	r := stats.NewRand(3)
	cfg := DefaultGuarantee()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MoE(query.Sum, obs, SampleSize, cfg, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNextSampleSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NextSampleSize(1000, 50, 578, 0.01)
	}
}
