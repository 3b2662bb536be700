// Command bench is the serving benchmark: it opens a persistent
// serve.Registry behind serve.NewServer on a loopback listener, drives it
// over real HTTP from at most two load goroutines (one connection each), and
// measures ingest → visible end to end: records made visible per second,
// ack latency, ack→visible latency, read latency, set-up time, live heap and
// consensus quality, on the workloads of workloads.go (see README.md).
// Visibility is observed in-process through (*serve.Job).Snapshot.
//
//	bash bench/run.sh -workload all -seed 1 -json bench.json [-trace trace.json]
//
// Every metric is printed as "<workload> <metric> <value> <unit> n=<samples>"
// and the last line of standard output is a JSON summary of the metrics
// BENCHMARK.json lists. The command exits 1 when a correctness check fails.
// -repeat N prints each metric's spread over N seeds; -compare BASE.json
// NEW.json gates one report against another by the bounds of BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"cpa/internal/cpufeat"
	"cpa/internal/mathx"
)

// env records what the numbers depend on besides the code.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Backend    string `json:"kernel_backend"`
	CPU        string `json:"cpu_features"`
}

func currentEnv() env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Backend:    mathx.ActiveBackend(),
		CPU:        cpufeat.Summary(),
	}
}

// report is one run of one workload: an untraced pass, plus a traced pass
// on the same seed when tracing is on.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Inputs    inputs    `json:"inputs"`
	EndToEnd  metricSet `json:"end_to_end"`
	Layers    metricSet `json:"per_layer,omitempty"`
	Checks    []check   `json:"checks"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`

	spans []span
}

type reportFile struct {
	Env  env       `json:"env"`
	Runs []*report `json:"runs"`
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of the generated crowds and arrival schedules")
		seconds  = flag.Int("seconds", 20, "measured window in seconds (restart: summed over its cycles; saturate: the longest it posts)")
		trace    = flag.String("trace", "0", "0: untraced; 1 or a file name: add a traced pass per workload, report per-layer metrics and write its spans (to the file, or under .bench_build/spans)")
		jsonOut  = flag.String("json", "", "write the full report to this file")
		repeat   = flag.Int("repeat", 1, "run each workload on seeds seed .. seed+N-1 and print each metric's median, quartiles and spread")
		compare  = flag.Bool("compare", false, "compare two reports, BASE.json NEW.json, against the bounds of BENCHMARK.json instead of running")
		benchDef = flag.String("benchmark", "BENCHMARK.json", "the BENCHMARK.json that lists the gated and per-layer metrics")
		dir      = flag.String("dir", filepath.Join(".bench_build", "tmp"), "scratch directory for the service's data")
	)
	flag.Parse()
	def, err := readBenchmark(*benchDef)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare BASE.json NEW.json")
			os.Exit(2)
		}
		n, err := compareReports(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if n > 0 {
			os.Exit(1)
		}
		return
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	traced := *trace != "0" && *trace != ""
	spanPath := *trace
	if *trace == "1" {
		spanPath = filepath.Join(filepath.Dir(*dir), "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}

	file := reportFile{Env: currentEnv()}
	e := file.Env
	fmt.Printf("env gomaxprocs=%d nproc=%d go=%s %s/%s kernel_backend=%s cpu=%s\n",
		e.GOMAXPROCS, e.NProc, e.GoVersion, e.GOOS, e.GOARCH, e.Backend, e.CPU)
	var spans traceFile
	for rep := range max(*repeat, 1) {
		for _, name := range names {
			s, err := specFor(name, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			r, err := runWorkload(def, s, *seed+int64(rep), time.Duration(*seconds)*time.Second, traced, *dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printReport(r)
			file.Runs = append(file.Runs, r)
			if traced {
				spans.Runs = append(spans.Runs, traceRun{Workload: r.Workload, Seed: r.Seed, Spans: r.spans})
			}
		}
	}
	if *repeat > 1 {
		printSpreads(file.Runs)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if traced {
		if err := writeJSON(spanPath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println("spans written to", spanPath)
	}
	res := summarize(def, file.Runs, traced)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, r := range file.Runs {
			for _, c := range r.Checks {
				if !c.OK {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: check %s failed: %s\n", r.Workload, r.Seed, c.Name, c.Detail)
				}
			}
		}
		os.Exit(1)
	}
}

// runWorkload runs the untraced pass and, when traced, a traced pass on the
// same seed; the trace overhead of each gated end-to-end metric is the traced
// pass's value relative to the untraced one.
func runWorkload(def *benchmarkSpec, s spec, seed int64, window time.Duration, traced bool, root string) (*report, error) {
	p, err := runPass(s, seed, window, false, root)
	if err != nil {
		return nil, err
	}
	r := &report{Workload: s.name, Seed: seed, Seconds: window.Seconds(), Inputs: p.inputs(),
		EndToEnd: p.e2e, Checks: p.checks}
	r.Attempted, r.Failed = p.counts()
	if !traced {
		return r, nil
	}
	p = nil // the traced pass's heap must not hold the untraced pass's data
	t, err := runPass(s, seed, window, true, root)
	if err != nil {
		return nil, err
	}
	r.Layers = t.layers
	for _, g := range def.EndToEnd {
		b, ok := r.EndToEnd[g.Name]
		tv, tok := t.e2e[g.Name]
		if ok && tok && b.Value != 0 {
			r.Layers.set("harness.trace_overhead_frac."+g.Name, tv.Value/b.Value-1, "ratio", 0)
		}
	}
	// The end-to-end metrics BENCHMARK.json does not gate are reported with
	// the per-layer metrics, as measured untraced. One the run has no
	// samples for (read latency without reads, a p99 from fewer than 1000
	// samples) reads 0 with n=0, so every listed metric is present.
	for _, l := range def.PerLayer {
		if m, ok := r.EndToEnd[l.Name]; ok {
			r.Layers[l.Name] = m
		}
		if _, ok := r.Layers[l.Name]; !ok {
			r.Layers.set(l.Name, 0, l.Unit, 0)
		}
	}
	r.Checks = append(r.Checks, t.checks...)
	a, f := t.counts()
	r.Attempted += a
	r.Failed += f
	r.spans = t.spans
	return r, nil
}

func printReport(r *report) {
	for i, set := range []metricSet{r.EndToEnd, r.Layers} {
		for _, name := range sortedKeys(set) {
			if _, dup := r.EndToEnd[name]; dup && i > 0 {
				continue
			}
			m := set[name]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf(" n=%d", m.N)
			}
			fmt.Printf("%s %s %s %s%s\n", r.Workload, name, fmtFloat(m.Value), m.Unit, n)
		}
	}
	in := r.Inputs
	fmt.Printf("%s inputs jobs=%d items=%d workers=%d labels=%d answers=%d answers_per_item=%.1f distinct_label_set_share=%.4f mean_body_bytes=%.0f answers_posted=%d\n",
		r.Workload, in.Jobs, in.Items, in.Workers, in.Labels, in.Answers, in.AnswersPerItem,
		in.DistinctLabelSetShare, in.MeanBodyBytes, in.Posted)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL: " + c.Detail
		}
		fmt.Printf("%s check %s: %s\n", r.Workload, c.Name, status)
	}
}

// printSpreads prints, per workload and metric, the median over the runs,
// the quartiles, and the spreads (q3−q1)/median and (max−min)/median.
func printSpreads(runs []*report) {
	for _, wl := range workloadNames {
		byName := map[string][]float64{}
		units := map[string]string{}
		for _, r := range runs {
			if r.Workload != wl {
				continue
			}
			for _, set := range []metricSet{r.EndToEnd, r.Layers} {
				for name, m := range set {
					byName[name] = append(byName[name], m.Value)
					units[name] = m.Unit
				}
			}
		}
		for _, name := range sortedKeys(byName) {
			xs := byName[name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			s := sortedCopy(xs)
			fmt.Printf("spread %s %s median=%s q1=%s q3=%s iqr/median=%.4f range/median=%.4f %s runs=%d\n",
				wl, name, fmtFloat(med), fmtFloat(q1), fmtFloat(q3), ratio(q3-q1, med),
				ratio(s[len(s)-1]-s[0], med), units[name], len(xs))
		}
	}
}

// result is the JSON summary printed as the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the summary line: untraced, the end-to-end metrics
// BENCHMARK.json gates; traced, its per-layer metrics. Several runs of a
// workload report their median; several workloads prefix each metric with
// the workload's name.
func summarize(def *benchmarkSpec, runs []*report, traced bool) result {
	res := result{Correct: true, Metrics: map[string]resultMetric{}}
	var names []string
	for _, g := range def.EndToEnd {
		names = append(names, g.Name)
	}
	if traced {
		names = names[:0]
		for _, l := range def.PerLayer {
			names = append(names, l.Name)
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	workloads := map[string]bool{}
	for _, r := range runs {
		workloads[r.Workload] = true
	}
	for _, r := range runs {
		res.Correct = res.Correct && r.correct()
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		set := r.EndToEnd
		if traced {
			set = r.Layers
		}
		for _, name := range names {
			m, ok := set[name]
			if !ok {
				continue
			}
			if len(workloads) > 1 {
				name = r.Workload + "." + name
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	for name, xs := range values {
		res.Metrics[name] = resultMetric{Value: median(xs), Unit: units[name]}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
