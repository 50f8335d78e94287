package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// shareAbsBound is how far a validity share (converged_share,
// ci_cover_share: unit ratio, better higher) may fall in absolute terms.
// BENCHMARK.json can only bound it as a share of itself, and the driver
// accepts no bound under three times the seed-to-seed spread of the
// noisiest workload: 10 % lets a coverage of 0.94 fall to 0.85. This is
// just above the widest spread measured between seeds (0.04, converged_share
// on cold_compile's 230 answers; README.md, "Noise"). Two reference-size
// runs of one seed must agree exactly anyway, see below.
const shareAbsBound = 0.05

// compareReports prints, for every (workload, metric) pair two -json
// reports share, both values and their difference, and judges B against A:
// an end-to-end metric may be worse by at most its BENCHMARK.json bound (a
// share of A's value), a validity share also by at most shareAbsBound, and
// a count marked exact must be equal. Per-layer metrics have no bound and
// are shown only. It returns the exit code.
func compareReports(sp *spec, pathA, pathB string, w io.Writer) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	for _, e := range []error{errA, errB} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "benchmark: compare:", e)
			return 2
		}
	}
	bounds := map[string]specMetric{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m
	}

	outside := 0
	fmt.Fprintf(w, "%-18s %-34s %14s %14s %9s %9s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "verdict")
	for _, ra := range a.Results {
		rb, ok := b.result(ra.Workload)
		if !ok {
			continue
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			if _, ok := rb.Metrics[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			ma, mb := ra.Metrics[n], rb.Metrics[n]
			diff := (mb.Value - ma.Value) / math.Abs(ma.Value)
			if ma.Value == 0 {
				diff = mb.Value - ma.Value // shares and counts at zero compare absolutely
			}
			bound, verdict := "", ""
			if sm, ok := bounds[n]; ok {
				worse := diff
				if sm.Better == "higher" {
					worse = -diff
				}
				bound = fmt.Sprintf("%.0f%%", 100*sm.Bound)
				share := sm.Unit == "ratio" && sm.Better == "higher"
				if share {
					bound += fmt.Sprintf(", %.2f", shareAbsBound)
				}
				verdict = "ok"
				if worse > sm.Bound || share && ma.Value-mb.Value > shareAbsBound {
					verdict = "OUTSIDE"
					outside++
				}
			}
			// Exactness is a property of a fixed request sequence on an
			// unchanging graph: same seed, -ops runs, not churn.
			if ma.Exact && mb.Exact && sameSequence(a, b) && ra.Workload != "churn_durable" {
				verdict = "exact"
				if ma.Value != mb.Value {
					verdict = "NOT EXACT"
					outside++
				}
			}
			fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g %+8.2f%% %9s  %s\n", ra.Workload, n, ma.Value, mb.Value, 100*diff, bound, verdict)
		}
	}
	if outside > 0 {
		fmt.Fprintf(w, "%d pair(s) outside their bound\n", outside)
		return 1
	}
	return 0
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) result(workload string) (*result, bool) {
	for i := range r.Results {
		if r.Results[i].Workload == workload {
			return &r.Results[i], true
		}
	}
	return nil, false
}

// sameSequence reports whether two runs issued the same fixed request
// sequence: fixed operation counts and the same seed.
func sameSequence(a, b *report) bool {
	return a.Env["seed"] == b.Env["seed"] && a.Env["seconds"] == float64(0) && b.Env["seconds"] == float64(0)
}
