// Command aggquery runs aggregate queries interactively against a graph +
// embedding pair (as produced by kgen) or against a freshly generated
// profile, using the textual query language:
//
//	aggquery -profile tiny \
//	  -q 'AVG(price) MATCH (g:Country name=Country_0)-[product]->(c:Automobile) TARGET c'
//
// Without -q it reads one query per line from stdin. The -eb flag sets the
// relative error bound; -refine re-runs the query while tightening eb so
// the interactive refinement of §IV-C is visible.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"kgaq/internal/buildinfo"
	"kgaq/internal/cmdutil"
	"kgaq/internal/core"
	"kgaq/internal/query"
)

func main() {
	graphPath := flag.String("graph", "", "graph snapshot or textual dump (formats auto-detected)")
	embPath := flag.String("emb", "", "embedding snapshot (from kgen)")
	profile := flag.String("profile", "", "generate a profile instead of loading files")
	q := flag.String("q", "", "query text (default: read lines from stdin)")
	eb := flag.Float64("eb", 0.01, "relative error bound")
	conf := flag.Float64("conf", 0.95, "confidence level")
	tau := flag.Float64("tau", 0, "similarity threshold (0 = profile default / 0.85)")
	refine := flag.Bool("refine", false, "start at eb=5% and tighten to -eb")
	seed := flag.Int64("seed", 1, "engine seed")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none); expired queries report their partial estimate")
	version := flag.Bool("version", false, "print build provenance and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get("aggquery"))
		return
	}
	buildinfo.Register("aggquery")

	g, model, _, err := cmdutil.LoadGraphModel(*graphPath, *embPath, *profile, tau)
	if err != nil {
		fail("%v", err)
	}
	eng, err := core.NewEngine(g, model, core.Options{
		ErrorBound: *eb, Confidence: *conf, Tau: *tau, Seed: *seed,
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "loaded %s\n", g)

	run := func(text string) {
		agg, err := query.Parse(text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse: %v\n", err)
			return
		}
		// ^C cancels this query mid-refinement instead of killing the
		// process; the registration is released when the query returns, so
		// ^C at the prompt (or a second ^C) terminates as usual.
		qctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			qctx, cancel = context.WithTimeout(qctx, *timeout)
			defer cancel()
		}
		if *refine {
			x, err := eng.Start(qctx, agg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "start: %v\n", err)
				return
			}
			for _, step := range []float64{0.05, 0.04, 0.03, 0.02, *eb} {
				begin := time.Now()
				res, err := x.Refine(qctx, step)
				if core.IsPartial(err, res) {
					fmt.Fprintf(os.Stderr, "interrupted — reporting partial estimate: %v\n", err)
				} else if err != nil {
					fmt.Fprintf(os.Stderr, "refine(eb=%.2f): %v\n", step, err)
					return
				}
				fmt.Printf("eb=%.0f%%: %s  |S|=%d  (+%.1fms)\n",
					step*100, res.Interval(), res.SampleSize,
					float64(time.Since(begin).Microseconds())/1000)
				if err != nil {
					return
				}
			}
			return
		}
		begin := time.Now()
		res, err := eng.Query(qctx, agg)
		if core.IsPartial(err, res) {
			fmt.Fprintf(os.Stderr, "interrupted — reporting partial estimate: %v\n", err)
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "query: %v\n", err)
			return
		}
		elapsed := time.Since(begin)
		fmt.Printf("%s\n", agg)
		fmt.Printf("  estimate: %s\n", res.Interval())
		fmt.Printf("  rounds: %d  sample: %d draws / %d distinct (of %d candidates)\n",
			len(res.Rounds), res.SampleSize, res.Distinct, res.Candidates)
		fmt.Printf("  converged: %v  exact: %v  time: %.1fms (S1 %.1f / S2 %.1f / S3 %.1f)\n",
			res.Converged, res.Exact, float64(elapsed.Microseconds())/1000,
			ms(res.Times.Sampling), ms(res.Times.Estimation), ms(res.Times.Guarantee))
		if res.Groups != nil {
			labels := make([]string, 0, len(res.Groups))
			for l := range res.Groups {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				gr := res.Groups[l]
				fmt.Printf("  group %-10s %.2f ± %.2f (%d draws)\n", l, gr.Estimate, gr.MoE, gr.Draws)
			}
		}
	}

	if *q != "" {
		run(*q)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(os.Stderr, "> ")
	for sc.Scan() {
		line := sc.Text()
		if line != "" {
			run(line)
		}
		fmt.Fprint(os.Stderr, "> ")
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aggquery: "+format+"\n", args...)
	os.Exit(1)
}
