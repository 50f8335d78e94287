// Command aggbench reproduces the paper's evaluation artefacts: one
// experiment id per table/figure of §VII, printed in the paper's row
// layout.
//
// Usage:
//
//	aggbench -exp table6        # one experiment, full profiles
//	aggbench -exp all -quick    # every experiment on the tiny set
//	aggbench -list
//
// The serving benchmark of record is not here: it is bash benchmark/run.sh,
// which drives real kgaqd processes (see BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kgaq/internal/bench"
	"kgaq/internal/buildinfo"
	"kgaq/internal/datagen"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	quick := flag.Bool("quick", false, "tiny dataset, two queries per bucket")
	per := flag.Int("per", 0, "queries per bucket (0 = default)")
	profile := flag.String("profile", "", "restrict to one dataset profile")
	seed := flag.Int64("seed", 1, "engine seed")
	version := flag.Bool("version", false, "print build provenance and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get("aggbench"))
		return
	}
	buildinfo.Register("aggbench")

	if *list {
		for _, id := range bench.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "aggbench: -exp required (see -list)")
		os.Exit(2)
	}

	// ^C cancels in-flight experiment queries so partial suites exit fast.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := bench.Config{Seed: *seed}
	if *quick {
		cfg = bench.QuickConfig()
		cfg.Seed = *seed
	}
	cfg.Ctx = ctx
	if *per > 0 {
		cfg.PerCategory = *per
	}
	if *profile != "" {
		p, ok := datagen.ProfileByName(*profile)
		if !ok {
			fmt.Fprintf(os.Stderr, "aggbench: unknown profile %q\n", *profile)
			os.Exit(2)
		}
		cfg.Profiles = []datagen.Profile{p}
	}

	reg := bench.Registry()
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	for _, id := range ids {
		runner, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "aggbench: unknown experiment %q (see -list)\n", id)
			os.Exit(2)
		}
		begin := time.Now()
		if err := runner(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		// A ^C mid-table leaves that table full of dashes; do not report it
		// as completed or roll on to the remaining experiments.
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %s interrupted\n", id)
			os.Exit(130)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(begin).Seconds())
	}
}
