package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one named reading. Exact marks a count that must repeat
// exactly between two fixed-ops runs of one commit on a static workload;
// Samples is the sample count behind a percentile.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Exact   bool    `json:"exact,omitempty"`
}

// metrics collects one run's readings; a name is set once.
type metrics struct {
	byName map[string]metric
	dup    []string
}

func newMetrics() *metrics { return &metrics{byName: map[string]metric{}} }

func (m *metrics) put(name string, v metric) {
	if _, ok := m.byName[name]; ok {
		m.dup = append(m.dup, name)
	}
	m.byName[name] = v
}

func (m *metrics) set(name string, v float64, unit string) { m.put(name, metric{Value: v, Unit: unit}) }

func (m *metrics) setN(name string, v float64, unit string, n int) {
	m.put(name, metric{Value: v, Unit: unit, Samples: n})
}

func (m *metrics) exact(name string, v float64, unit string) {
	m.put(name, metric{Value: v, Unit: unit, Exact: true})
}

// finish rejects a run whose readings cannot be reported: a name emitted
// twice, or a value JSON cannot carry.
func (m *metrics) finish() error {
	if len(m.dup) > 0 {
		return fmt.Errorf("metrics emitted twice: %v", m.dup)
	}
	for name, v := range m.byName {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite (no samples?)", name)
		}
	}
	return nil
}

// percentile is the nearest-rank p-quantile; NaN on no samples, which
// finish() turns into an error instead of a silent zero.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark itself consults: which
// metrics the contract line carries, and the bounds -compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
