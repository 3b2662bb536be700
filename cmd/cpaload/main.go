// Command cpaload drives cpaserve with the scenario-diverse load & chaos
// harness (internal/loadgen; DESIGN.md §7): named crowd/traffic scenarios
// streamed closed-loop over HTTP while behavioural invariants are checked —
// served-equals-replay, acked-answer durability under 429 backpressure,
// bit-for-bit chaos recovery, snapshot monotonicity and bounded staleness.
//
// Usage:
//
//	cpaload -list
//	cpaload -scenario spammer-flood
//	cpaload -scenario all -scale 0.06 -seed 3 -json cpaload.json
//	cpaload -scenario bursty -addr http://localhost:8080 -realtime
//
// By default each scenario runs against an in-process server with a
// virtual clock (the arrival schedule shapes the request sequence at zero
// wall cost). -addr targets a running cpaserve instead (chaos scenarios and
// journal-replay invariants then report as skipped/unsupported); -realtime
// paces arrivals in wall-clock time at each scenario's rate. The exit
// status is 1 when any invariant fails, so the command doubles as a soak
// gate in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cpa/internal/loadgen"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name, comma-separated list, or 'all' (see -list)")
		list     = flag.Bool("list", false, "list the scenario library and exit")
		scale    = flag.Float64("scale", 0.06, "dataset profile scale in (0,1]")
		seed     = flag.Int64("seed", 1, "workload seed (crowd, arrival order, kill points)")
		addr     = flag.String("addr", "", "base URL of a running cpaserve (empty = in-process server)")
		data     = flag.String("data", "", "in-process server data directory (empty = temp dir, removed after)")
		rate     = flag.Bool("realtime", false, "pace arrivals in real time at each scenario's rate (default: virtual clock)")
		jsonOut  = flag.String("json", "", "write the machine-readable report here (array of per-scenario reports)")
		quiet    = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	if *list {
		for _, sc := range loadgen.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Description)
		}
		fmt.Printf("%-16s primary hard-killed mid-stream; the router promotes the most-caught-up follower losslessly\n", loadgen.ClusterFailoverScenario)
		fmt.Printf("%-16s planned zero-downtime ownership transfer under live ingestion\n", loadgen.ClusterHandoffScenario)
		return
	}
	if *scenario == "" {
		fmt.Fprintln(os.Stderr, "cpaload: -scenario is required (or -list)")
		os.Exit(2)
	}
	names := strings.Split(*scenario, ",")
	if *scenario == "all" {
		names = append(loadgen.ScenarioNames(), loadgen.ClusterScenarioNames()...)
	}
	isCluster := map[string]bool{}
	for _, name := range loadgen.ClusterScenarioNames() {
		isCluster[name] = true
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cpaload: "+format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}

	// Non-nil so -json writes a valid (possibly empty) array even when
	// every scenario errors out before producing a report. Cluster reports
	// share the array (the schema carries its own scenario name).
	reports := []any{}
	failed := false
	for _, name := range names {
		name = strings.TrimSpace(name)
		if isCluster[name] {
			// Cluster scenarios build their own in-process cluster; -addr
			// does not apply (there is no external router to chaos-test).
			if *addr != "" {
				fmt.Fprintf(os.Stderr, "cpaload: %s: cluster scenarios require the in-process target, ignoring -addr\n", name)
			}
			ccfg := loadgen.ClusterConfig{Scenario: name, Scale: *scale, Seed: *seed, Logf: logf}
			if *rate {
				ccfg.Clock = loadgen.RealClock{}
			}
			rep, err := loadgen.RunCluster(ccfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpaload: %s: %v\n", name, err)
				failed = true
				continue
			}
			reports = append(reports, rep)
			fmt.Println(rep.Summary())
			if len(rep.Failed()) > 0 {
				failed = true
			}
			continue
		}
		cfg := loadgen.Config{
			Scenario: name,
			Scale:    *scale,
			Seed:     *seed,
			BaseURL:  *addr,
			DataDir:  *data,
			Logf:     logf,
		}
		if *rate {
			cfg.Clock = loadgen.RealClock{}
		}
		rep, err := loadgen.Run(cfg)
		if err != nil {
			// A harness error fails the run but must not discard the
			// reports already gathered: keep going so -json still lands.
			fmt.Fprintf(os.Stderr, "cpaload: %s: %v\n", name, err)
			failed = true
			continue
		}
		reports = append(reports, rep)
		fmt.Println(rep.Summary())
		if len(rep.Failed()) > 0 {
			failed = true
		}
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpaload: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cpaload: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d scenario reports)\n", *jsonOut, len(reports))
	}
	if failed {
		os.Exit(1)
	}
}
