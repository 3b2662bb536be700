// Command cpabench regenerates the paper's evaluation tables and figures on
// the simulated crowd substrate and prints them as ASCII tables (or writes
// EXPERIMENTS.md with -md).
//
// Usage:
//
//	cpabench [-e all|table1|table3|table4|fig3|...|fig10] \
//	         [-scale quick|standard|paper] [-runs N] [-seed N] [-md FILE]
//
// The experiment ids follow the paper's numbering; see DESIGN.md §4 for the
// mapping.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cpa/internal/cpufeat"
	"cpa/internal/experiments"
	"cpa/internal/mathx"
)

func main() {
	var (
		exp   = flag.String("e", "all", "experiment id or 'all' ("+strings.Join(experiments.IDs(), ", ")+")")
		scale = flag.String("scale", "standard", "preset: quick, standard or paper")
		runs  = flag.Int("runs", 0, "override the preset's run count")
		seed  = flag.Int64("seed", 1, "base random seed")
		md    = flag.String("md", "", "also write results as Markdown to this file")

		jsonOut  = flag.String("json", "", "perf mode: skip the tables and write a machine-readable method×profile benchmark (BENCH_*.json) here")
		profiles = flag.String("profiles", "", "perf mode: comma-separated Table 3 profiles (default all)")
		methods  = flag.String("methods", "", "perf mode: comma-separated methods (default "+strings.Join(benchMethods, ",")+")")

		baseline   = flag.String("baseline", "", "perf mode: diff the fresh report against this committed BENCH json and exit 1 on ns/op regression (the CI bench gate)")
		maxRegress = flag.Float64("max-regress", 0.15, "perf mode: allowed fractional ns/op regression before -baseline fails (0.15 = +15%)")

		cpuinfo = flag.Bool("cpuinfo", false, "print detected CPU features and the dispatched kernel backend, then exit (CI logging)")
	)
	flag.Parse()

	fmt.Printf("cpu: %s, kernel backend: %s\n", cpufeat.Summary(), mathx.ActiveBackend())
	if *cpuinfo {
		fmt.Printf("available backends: %s\n", strings.Join(mathx.Backends(), ", "))
		return
	}

	var settings experiments.Settings
	switch *scale {
	case "quick":
		settings = experiments.Quick()
	case "standard":
		settings = experiments.Standard()
	case "paper":
		settings = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "cpabench: unknown scale %q (quick, standard, paper)\n", *scale)
		os.Exit(2)
	}
	if *runs > 0 {
		settings.Runs = *runs
	}
	settings.Seed = *seed

	if *jsonOut != "" {
		if err := runPerfBench(*jsonOut, *scale, settings, *profiles, *methods, *baseline, *maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "cpabench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var results []*experiments.Result
	start := time.Now()
	if *exp == "all" {
		all, err := experiments.RunAll(settings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpabench: %v\n", err)
			os.Exit(1)
		}
		results = all
	} else {
		runner, err := experiments.Get(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpabench: %v\n", err)
			os.Exit(2)
		}
		r, err := runner(settings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpabench: %s: %v\n", *exp, err)
			os.Exit(1)
		}
		results = []*experiments.Result{r}
	}

	for _, r := range results {
		fmt.Println(r.RenderASCII())
	}
	fmt.Printf("completed %d experiment(s) in %.1fs (scale=%s runs=%d seed=%d)\n",
		len(results), time.Since(start).Seconds(), *scale, settings.Runs, settings.Seed)

	if *md != "" {
		var b strings.Builder
		b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
		fmt.Fprintf(&b, "Generated by `cpabench -e %s -scale %s -runs %d -seed %d` on %s.\n\n",
			*exp, *scale, settings.Runs, settings.Seed, time.Now().Format("2006-01-02"))
		b.WriteString("Datasets are simulated stand-ins for the paper's CrowdFlower corpora " +
			"(DESIGN.md, substitution D4): absolute numbers differ from the paper's human-crowd " +
			"values; orderings and trends are the reproduction target.\n\n")
		for _, r := range results {
			b.WriteString(r.RenderMarkdown())
		}
		if err := os.WriteFile(*md, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cpabench: writing %s: %v\n", *md, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *md)
	}
}
