package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestEveryNamedMetricIsEmitted runs the four workloads, end to end and
// traced, at 1/50 size on the tiny profile, and holds the output to
// BENCHMARK.json: every workload it names exists, and every metric it
// names comes out once per workload with the declared unit and a finite
// value. (A name emitted twice fails the run itself, see metrics.finish.)
func TestEveryNamedMetricIsEmitted(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	if got, want := strings.Join(workloadNames(), " "), strings.Join(specNames, " "); got != want {
		t.Fatalf("benchmark runs workloads %q, BENCHMARK.json names %q", got, want)
	}

	out := t.TempDir()
	bin, err := buildKgaqd(root, out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reapAll)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	for _, trace := range []bool{false, true} {
		want := sp.EndToEnd
		if trace {
			want = sp.PerLayer
		}
		for _, name := range workloadNames() {
			cfg := config{Workload: name, Seed: 101, Graph: 7, Scale: 0.02, Trace: trace, Out: out, Profile: "tiny", Clients: 1}
			begin := time.Now()
			res, err := runWorkload(cfg, bin)
			t.Logf("%s trace=%v: %v", name, trace, time.Since(begin).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, findings %v", name, trace, res.Attempted, res.Failed, res.Findings)
			}
			for _, sm := range want {
				m, ok := res.Metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, sm.Name)
				case m.Unit != sm.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, sm.Name, m.Unit, sm.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, sm.Name, m.Value)
				}
			}
			for n, m := range res.Metrics {
				if !nameRE.MatchString(n) || len(n) > 64 {
					t.Errorf("metric name %q is outside the contract's alphabet", n)
				}
				if m.Unit == "" {
					t.Errorf("metric %s has no unit", n)
				}
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(res, sp, trace)), &line); err != nil {
				t.Fatalf("contract line: %v", err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: contract line carries %d of %d metrics", name, trace, len(line.Metrics), len(want))
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "run-*")); len(left) > 0 {
		t.Errorf("per-run temp dirs left behind: %v", left)
	}
}

// TestCompareJudgesByBound feeds -compare two reports that differ by more
// and by less than a bound, and a broken exact count.
func TestCompareJudgesByBound(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "throughput_qps", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "ci_cover_share", Unit: "ratio", Better: "higher", Bound: 0.10},
	}}
	write := func(name string, p50, qps, draws, cover float64) string {
		rep := report{
			Env: map[string]any{"seed": 101, "seconds": 0},
			Results: []result{{Workload: "hot_repeat", Metrics: map[string]metric{
				"query_p50_ms":         {Value: p50, Unit: "ms"},
				"throughput_qps":       {Value: qps, Unit: "ops/s"},
				"ci_cover_share":       {Value: cover, Unit: "ratio"},
				"core.draws_per_query": {Value: draws, Unit: "count", Exact: true},
			}}},
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 100, 5000, 0.94)
	for _, tc := range []struct {
		name                   string
		p50, qps, draws, cover float64
		want                   int
	}{
		{"within", 10.9, 91, 5000, 0.94, 0},
		{"better", 5, 200, 5000, 0.94, 0},
		{"slower", 11.1, 100, 5000, 0.94, 1},
		{"less throughput", 10, 89, 5000, 0.94, 1},
		{"count moved", 10, 100, 5001, 0.94, 1},
		{"cover within", 10, 100, 5000, 0.90, 0},
		{"cover fell", 10, 100, 5000, 0.88, 1}, // 6.4 % of 0.94: inside the relative bound
	} {
		var buf bytes.Buffer
		if got := compareReports(sp, base, write("b.json", tc.p50, tc.qps, tc.draws, tc.cover), &buf); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, buf.String())
		}
	}
}
