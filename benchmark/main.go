// Command benchmark is the benchmark of record for kgaq (BENCHMARK.json):
// it builds cmd/kgaqd, boots real kgaqd processes, drives them over
// loopback HTTP with closed-loop clients, checks every answer against an
// SSB oracle and prints each metric by name with its unit. README.md in
// this directory has the workload, metric and interaction tables.
//
//	bash benchmark/run.sh -workload hot_repeat -seed 101 -seconds 24 -trace 0
//	bash benchmark/run.sh -workload hot_repeat -trace 1   # per-layer metrics
//	bash benchmark/run.sh -json A.json                     # all four workloads
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's knobs.
type config struct {
	Workload string
	Seed     int64 // request order, engine seeds, mutation values
	Seconds  int   // > 0: the measured phase runs this long
	Trace    bool
	Out      string
	Clients  int
	// The three below have one value outside the test, set in realMain.
	Graph   int64   // datagen Profile.Seed of member 0's graph
	Scale   float64 // Seconds == 0: the workload's fixed op count × Scale
	Profile string
}

// result is one workload's outcome: the contract line's fields plus the
// report-only readings (layer metrics that only this workload exercises).
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Findings are oracle or sizing violations; any makes Correct false.
	Findings []string `json:"findings,omitempty"`
}

// report is the -json file -compare reads: environment plus one result per
// workload run.
type report struct {
	Env     map[string]any `json:"env"`
	Trace   bool           `json:"trace"`
	Results []result       `json:"results"`
}

// The hard stop, per workload: under the contract's 180 s limit for a
// -seconds run, and well over the 4 to 10 min a whole reference-size run
// (-seconds 0) has been seen to take.
const (
	watchdog    = 170 * time.Second
	refWatchdog = 10 * time.Minute
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	// The graph is stock dbpedia-sim (datagen seed 101) whatever -seed says:
	// latency differs more between graphs than any bound allows (README.md,
	// "Noise").
	cfg := config{Graph: 101, Scale: 1, Profile: "dbpedia-sim"}
	var trace int
	var jsonOut string
	var compare bool
	flag.StringVar(&cfg.Workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	flag.Int64Var(&cfg.Seed, "seed", 101, "makes the inputs: request order, per-request engine seeds, mutation values")
	flag.IntVar(&cfg.Seconds, "seconds", 0, "length of the measured phase; 0 = the workload's fixed operation count, so that two runs issue identical requests")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics (short end-to-end stage + in-process traced replay and probes)")
	flag.StringVar(&cfg.Out, "out", filepath.Join("benchmark", "out"), "scratch directory: built kgaqd, per-run temp dirs, span dumps")
	flag.StringVar(&jsonOut, "json", "", "also write the full report to this file (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two -json reports: -compare A.json B.json")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareReports(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	cfg.Trace = trace == 1
	// The load generator shares the box with kgaqd: one core stays free
	// for the server, so the 2-core reference box runs one closed-loop
	// client. With two, both cores saturate and the run-to-run spread of
	// every latency grows from 4–6% to 25–30% (README.md, "Noise").
	cfg.Clients = max(1, min(2, runtime.NumCPU()-1))

	names := workloadNames()
	if cfg.Workload != "all" {
		if !slices.Contains(names, cfg.Workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", cfg.Workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{cfg.Workload}
	}

	// Children die with us on every exit path: normal return and panic (the
	// deferred reap), SIGINT/SIGTERM and the watchdog (reap, then exit), and
	// SIGKILL of this process (Pdeathsig, see sys_linux.go).
	defer reapAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		reapAll()
		os.Exit(130)
	}()
	limit := time.Duration(len(names)) * refWatchdog
	if cfg.Seconds > 0 {
		limit = time.Duration(len(names)) * watchdog
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "benchmark: watchdog: run exceeded", limit)
		reapAll()
		os.Exit(3)
	})

	out := cfg.Out
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	cfg.Out = out
	bin, err := buildKgaqd(root, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep := report{Env: environment(cfg), Trace: cfg.Trace}
	for _, name := range names {
		c := cfg
		c.Workload = name
		res, err := runWorkload(c, bin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printResult(os.Stdout, res)
		rep.Results = append(rep.Results, *res)
		if !res.Correct {
			code = 1
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", jsonOut, err)
			return 1
		}
	}
	// The contract line: last on stdout, exactly these keys, only the
	// metrics BENCHMARK.json lists for this mode.
	if len(rep.Results) == 1 {
		fmt.Println(contractLine(&rep.Results[0], sp, cfg.Trace))
	}
	return code
}

// contractLine renders one result as the driver's JSON object.
func contractLine(res *result, sp *spec, trace bool) string {
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type line struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, sm := range want {
		if m, ok := res.Metrics[sm.Name]; ok {
			l.Metrics[sm.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(l)
	if err != nil {
		// Only a non-finite value can fail here; finish() rejects those.
		panic(err)
	}
	return string(b)
}

// printResult writes the human-readable table: every metric measured, the
// contract ones and the report-only ones alike.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		if m.Samples > 0 {
			note = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(w, "FINDING: %s\n", f)
	}
}
