package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"cpa/internal/answers"
	"cpa/internal/baselines"
	"cpa/internal/core"
	"cpa/internal/cpufeat"
	"cpa/internal/datasets"
	"cpa/internal/experiments"
	"cpa/internal/labelset"
	"cpa/internal/mathx"
	"cpa/internal/metrics"
	"cpa/internal/serve"
)

// benchMethods lists the aggregation methods the -json perf sweep covers, in
// report order. The pseudo-method "publish" measures the serving layer's
// per-round snapshot publication at 1× and 10× stream length instead of a
// full aggregation (see benchPublish); "kernels" times the inference hot
// loops in isolation — batch fit, single-pass stream, best steady-state
// per-round PartialFit latency, and the finalize pass — without the prediction stage
// (see benchKernels). "microkernels" times the dispatched mathx vector
// kernels themselves, per backend and per length, independent of any
// dataset (see benchMicroKernels); it runs once per report, not per
// profile. "ingest" times the ingestion hot path — the zero-alloc NDJSON
// codec against its encoding/json reference, and serial vs concurrent
// group-committed journal appends — also once per report (see benchIngest).
var benchMethods = []string{"cpa", "cpa-online", "mv", "em", "bcc", "cbcc", "publish", "kernels", "microkernels", "ingest"}

// BenchRecord is one (method, profile) perf measurement — the BENCH_*.json
// row shape tracked across PRs.
type BenchRecord struct {
	Method      string  `json:"method"`
	Profile     string  `json:"profile"`
	Scale       float64 `json:"scale"`
	Runs        int     `json:"runs"`
	Items       int     `json:"items"`
	Workers     int     `json:"workers"`
	Labels      int     `json:"labels"`
	Answers     int     `json:"answers"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Precision   float64 `json:"precision"`
	Recall      float64 `json:"recall"`
	F1          float64 `json:"f1"`
	// RetainedBytes is the live heap a publish-full row's publisher holds
	// (its finalize clone and last view); informational, never gated.
	RetainedBytes int64 `json:"retained_bytes,omitempty"`
}

// BenchReport is the envelope written by cpabench -json. CPU records the
// detected vector features and the kernel backend the run dispatched to
// (e.g. "avx,avx2,fma backend=avx2"), so bench artifacts from different
// machines are never silently compared as like-for-like.
type BenchReport struct {
	GeneratedAt string        `json:"generated_at"`
	ScaleName   string        `json:"scale_name"`
	Seed        int64         `json:"seed"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Parallelism int           `json:"parallelism"`
	CPU         string        `json:"cpu"`
	Results     []BenchRecord `json:"results"`
}

// gatedMethods are the method families the -baseline regression gate
// compares: the CPA fit/stream aggregations, the isolated kernel rows, and
// the publish costs — both the per-round incremental rows (usually under
// the gate floor: sub-millisecond is the snapshot engine's design point)
// and the full finalize pipeline, whose O(stream) runtime is the gateable
// proxy for the same kernels. Baselines (mv, em, …) are informational.
var gatedMethods = map[string]bool{
	"cpa": true, "cpa-online": true,
	"kernels-fit": true, "kernels-stream": true, "kernels-round": true, "kernels-finalize": true,
	"publish-1x": true, "publish-10x": true, "publish-full-1x": true, "publish-full-10x": true,
}

// checkBaseline compares the fresh report against a committed baseline and
// returns an error listing every gated (method, profile) row whose ns/op
// regressed by more than maxRegress (e.g. 0.15 = +15%). Rows absent from
// the baseline are reported as informational and never fail the gate, so
// adding a method or profile doesn't require a flag day.
func checkBaseline(report *BenchReport, baselinePath string, maxRegress float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	// ns/op is only comparable between runs on the same machine shape and
	// workload: refuse to gate against a baseline recorded under a
	// different GOMAXPROCS or scale (e.g. the committed reference file on
	// foreign hardware) rather than fail PRs on an apples-to-oranges diff.
	// CI sidesteps this by regenerating the baseline from the base commit
	// on the same runner within the job.
	if base.GOMAXPROCS != report.GOMAXPROCS || base.ScaleName != report.ScaleName {
		fmt.Printf("gate: baseline environment mismatch (gomaxprocs %d vs %d, scale %q vs %q): skipping regression gate\n",
			base.GOMAXPROCS, report.GOMAXPROCS, base.ScaleName, report.ScaleName)
		return nil
	}
	old := make(map[string]int64, len(base.Results))
	for _, r := range base.Results {
		old[r.Method+"/"+r.Profile] = r.NsPerOp
	}
	// Rows shorter than this cannot be gated at a 15%-class threshold:
	// timer granularity, cache state, and a single scheduler stall inside a
	// handful of sub-millisecond samples swamp real regressions. Such rows
	// stay informational; run a larger -scale to gate them.
	const gateFloorNs = 2_000_000
	var regressions []string
	for _, r := range report.Results {
		if !gatedMethods[r.Method] {
			continue
		}
		key := r.Method + "/" + r.Profile
		was, ok := old[key]
		if !ok || was <= 0 {
			fmt.Printf("gate: %-26s no baseline row, skipping\n", key)
			continue
		}
		if was < gateFloorNs || r.NsPerOp < gateFloorNs {
			fmt.Printf("gate: %-26s %8.2fms under the %.0fms gate floor, informational only\n",
				key, float64(r.NsPerOp)/1e6, float64(gateFloorNs)/1e6)
			continue
		}
		ratio := float64(r.NsPerOp) / float64(was)
		status := "ok"
		if ratio > 1+maxRegress {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1fms -> %.1fms (%+.1f%%)", key, float64(was)/1e6, float64(r.NsPerOp)/1e6, (ratio-1)*100))
		}
		fmt.Printf("gate: %-26s %8.1fms vs %8.1fms baseline (%+6.1f%%) %s\n",
			key, float64(r.NsPerOp)/1e6, float64(was)/1e6, (ratio-1)*100, status)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("ns/op regression above %.0f%% on %d row(s):\n  %s",
			maxRegress*100, len(regressions), strings.Join(regressions, "\n  "))
	}
	return nil
}

// runPerfBench measures every requested method on every requested Table 3
// profile (wall time, allocations, and consensus P/R against the simulated
// ground truth) and writes the report as JSON. Each op is one full
// aggregation of the dataset — the same unit as BenchmarkFit/FitStream — so
// ns_per_op is directly comparable across PRs on the same machine. When
// baselinePath is non-empty the report is then diffed against it
// (checkBaseline) and the run fails on regression.
func runPerfBench(path, scaleName string, s experiments.Settings, profileList, methodList, baselinePath string, maxRegress float64) error {
	parallelism := runtime.GOMAXPROCS(0)
	report := BenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		ScaleName:   scaleName,
		Seed:        s.Seed,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  parallelism,
		Parallelism: parallelism,
		CPU:         fmt.Sprintf("%s backend=%s", cpufeat.Summary(), mathx.ActiveBackend()),
	}

	profiles := datasets.Names()
	if profileList != "" {
		profiles = strings.Split(profileList, ",")
	}
	methods := benchMethods
	if methodList != "" {
		methods = strings.Split(methodList, ",")
	}

	// The microkernel and ingest rows are dataset-independent: run them once
	// up front and drop the pseudo-methods from the per-profile sweep.
	perProfile := methods[:0:0]
	for _, method := range methods {
		switch strings.TrimSpace(method) {
		case "microkernels":
			for _, rec := range benchMicroKernels() {
				report.Results = append(report.Results, rec)
				fmt.Printf("%-22s %-14s %10.1f ns/op\n", rec.Method, rec.Profile, float64(rec.NsPerOp))
			}
		case "ingest":
			recs, err := benchIngest()
			if err != nil {
				return fmt.Errorf("ingest bench: %w", err)
			}
			for _, rec := range recs {
				report.Results = append(report.Results, rec)
				fmt.Printf("%-22s %-14s %10.1f ns/op\n", rec.Method, rec.Profile, float64(rec.NsPerOp))
			}
		default:
			perProfile = append(perProfile, method)
		}
	}
	methods = perProfile

	for _, profile := range profiles {
		ds, _, err := datasets.Load(strings.TrimSpace(profile), s.DataScale, s.Seed)
		if err != nil {
			return fmt.Errorf("loading profile %q: %w", profile, err)
		}
		for _, method := range methods {
			method = strings.TrimSpace(method)
			if method == "publish" || method == "kernels" {
				var recs []BenchRecord
				var err error
				if method == "publish" {
					recs, err = benchPublish(ds, s, parallelism)
				} else {
					recs, err = benchKernels(ds, s, parallelism)
				}
				if err != nil {
					return fmt.Errorf("%s on %s: %w", method, profile, err)
				}
				for _, rec := range recs {
					rec.Profile = ds.Name
					rec.Scale = s.DataScale
					report.Results = append(report.Results, rec)
					fmt.Printf("%-16s %-8s %9.3f ms/op (runs %d at %d answers)\n",
						rec.Method, ds.Name, float64(rec.NsPerOp)/1e6, rec.Runs, rec.Answers)
				}
				continue
			}
			rec, err := benchOne(method, ds, s, parallelism)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", method, profile, err)
			}
			rec.Profile = ds.Name
			rec.Scale = s.DataScale
			report.Results = append(report.Results, rec)
			fmt.Printf("%-10s %-8s %9.1f ms/op %10d allocs/op  P=%.3f R=%.3f\n",
				method, ds.Name, float64(rec.NsPerOp)/1e6, rec.AllocsPerOp, rec.Precision, rec.Recall)
		}
	}

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(report.Results))
	if baselinePath != "" {
		return checkBaseline(&report, baselinePath, maxRegress)
	}
	return nil
}

// benchOne times s.Runs full aggregations of ds with the given method and
// evaluates the (deterministic) consensus of the last run. ns_per_op is
// the best (minimum) run: the computation is deterministic, so the minimum
// estimates the true cost with scheduler and neighbour noise filtered out,
// which is what makes the -baseline regression gate stable at quick scale.
func benchOne(method string, ds *answers.Dataset, s experiments.Settings, parallelism int) (BenchRecord, error) {
	agg, err := benchAggregator(method, s.Seed, parallelism)
	if err != nil {
		return BenchRecord{}, err
	}
	var minNs, totalAllocs, totalBytes int64
	var ms runtime.MemStats
	var pred []labelset.Set
	for run := 0; run < s.Runs; run++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startAllocs, startBytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		pred, err = agg.Aggregate(ds)
		if err != nil {
			return BenchRecord{}, err
		}
		if ns := time.Since(start).Nanoseconds(); run == 0 || ns < minNs {
			minNs = ns
		}
		runtime.ReadMemStats(&ms)
		totalAllocs += int64(ms.Mallocs - startAllocs)
		totalBytes += int64(ms.TotalAlloc - startBytes)
	}

	pr, err := metrics.Evaluate(ds, pred)
	if err != nil {
		return BenchRecord{}, err
	}
	return BenchRecord{
		Method:      method,
		Runs:        s.Runs,
		Items:       ds.NumItems,
		Workers:     ds.NumWorkers,
		Labels:      ds.NumLabels,
		Answers:     ds.NumAnswers(),
		NsPerOp:     minNs,
		AllocsPerOp: totalAllocs / int64(s.Runs),
		BytesPerOp:  totalBytes / int64(s.Runs),
		Precision:   pr.Precision,
		Recall:      pr.Recall,
		F1:          pr.F1(),
	}, nil
}

// benchPublish measures the serving layer's per-round snapshot publication
// in the fitter's shape — PartialFit a mini-batch, publish — at 1× and 10×
// the profile's stream length. ns_per_op is the best publish call
// alone over the final rounds at the target length; a flat trajectory
// across the two points is the O(batch) publication property the snapshot
// engine guarantees (DESIGN.md §8). The publish-full rows measure the
// caught-up full finalize pipeline at the same lengths for comparison
// (O(stream) by construction), plus the heap the publisher retains.
func benchPublish(ds *answers.Dataset, s experiments.Settings, parallelism int) ([]BenchRecord, error) {
	const steadyRounds = 16
	var out []BenchRecord
	for _, mul := range []int{1, 10} {
		model, err := core.NewModel(core.Config{Seed: s.Seed, Parallelism: parallelism},
			ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			return nil, err
		}
		batchSize := model.Config().BatchSize
		pub := core.NewPublisher(model)
		all := ds.Answers()
		total := len(all) * mul
		// Measure only the trailing rounds at the target length, and never
		// round 1: the cold publisher publishes the full pipeline there, so
		// folding it into a short stream's mean would make the 1× point
		// incomparable with the 10× one.
		roundsPerRep := (len(all) + batchSize - 1) / batchSize
		totalRounds := roundsPerRep * mul
		window := steadyRounds
		if window > totalRounds-1 {
			window = totalRounds - 1
		}
		if window < 1 {
			return nil, fmt.Errorf("stream too short for publish bench (%d answers, %d rounds)", total, totalRounds)
		}
		// Like benchOne, ns_per_op is the best tail round — per-round
		// publish work at the target stream length is deterministic, so the
		// minimum filters the noise that makes a small tail-window mean
		// flap through the regression gate. Runt final batches are excluded
		// from the sample (publish cost is O(dirty) = O(batch), so the runt
		// would systematically be the cheapest round, not a representative
		// one); they still run to keep the stream shape intact.
		hasFull := len(all) >= batchSize
		var tailMinNs int64
		tailRounds, round := 0, 0
		for rep := 0; rep < mul; rep++ {
			for start := 0; start < len(all); start += batchSize {
				end := start + batchSize
				if end > len(all) {
					end = len(all)
				}
				if err := model.PartialFit(all[start:end]); err != nil {
					return nil, err
				}
				begin := time.Now()
				if _, _, err := pub.Publish(false); err != nil {
					return nil, err
				}
				d := time.Since(begin).Nanoseconds()
				round++
				if round > totalRounds-window && (end-start == batchSize || !hasFull) {
					if tailRounds == 0 || d < tailMinNs {
						tailMinNs = d
					}
					tailRounds++
				}
			}
		}
		if tailRounds == 0 {
			return nil, fmt.Errorf("publish tail window sampled no full rounds (%d answers, batch %d)", total, batchSize)
		}
		dims := BenchRecord{
			Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels, Answers: total,
		}
		inc := dims
		inc.Method = fmt.Sprintf("publish-%dx", mul)
		inc.Runs = tailRounds
		inc.NsPerOp = tailMinNs
		out = append(out, inc)

		const fullRuns = 3
		var fullMinNs int64
		for k := 0; k < fullRuns; k++ {
			begin := time.Now()
			if _, _, err := pub.Publish(true); err != nil {
				return nil, err
			}
			if ns := time.Since(begin).Nanoseconds(); k == 0 || ns < fullMinNs {
				fullMinNs = ns
			}
		}
		full := dims
		full.Method = fmt.Sprintf("publish-full-%dx", mul)
		full.Runs = fullRuns
		full.NsPerOp = fullMinNs
		withPub := heapLive()
		runtime.KeepAlive(pub)
		pub = nil
		full.RetainedBytes = withPub - heapLive()
		runtime.KeepAlive(model)
		out = append(out, full)
	}
	return out, nil
}

// heapLive returns HeapAlloc after two collections, so memory the first
// one could only mark is gone too.
func heapLive() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// benchKernels times the inference hot loops in isolation — exactly the
// paths the label-set score-panel engine accelerates — with no prediction
// stage, so the rows move only when the kernels do:
//
//	kernels-fit       one batch Fit (Algorithm 1) per op
//	kernels-stream    one single-pass FitStream (Algorithm 2) per op
//	kernels-round     best full-size tail-round PartialFit latency
//	kernels-finalize  one FinalizeOnline pass on the streamed model per op
func benchKernels(ds *answers.Dataset, s experiments.Settings, parallelism int) ([]BenchRecord, error) {
	dims := BenchRecord{
		Runs: s.Runs, Items: ds.NumItems, Workers: ds.NumWorkers,
		Labels: ds.NumLabels, Answers: ds.NumAnswers(),
	}
	cfg := core.Config{Seed: s.Seed, Parallelism: parallelism}

	// ns_per_op is the best (minimum) run, like benchOne: deterministic
	// work plus noise, so the minimum is the stable estimator the
	// regression gate needs.
	timed := func(method string, runs int, op func() error) (BenchRecord, error) {
		var ms runtime.MemStats
		var minNs, totalAllocs, totalBytes int64
		for r := 0; r < runs; r++ {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			startAllocs, startBytes := ms.Mallocs, ms.TotalAlloc
			start := time.Now()
			if err := op(); err != nil {
				return BenchRecord{}, err
			}
			if ns := time.Since(start).Nanoseconds(); r == 0 || ns < minNs {
				minNs = ns
			}
			runtime.ReadMemStats(&ms)
			totalAllocs += int64(ms.Mallocs - startAllocs)
			totalBytes += int64(ms.TotalAlloc - startBytes)
		}
		rec := dims
		rec.Method = method
		rec.Runs = runs
		rec.NsPerOp = minNs
		rec.AllocsPerOp = totalAllocs / int64(runs)
		rec.BytesPerOp = totalBytes / int64(runs)
		return rec, nil
	}

	var out []BenchRecord
	rec, err := timed("kernels-fit", s.Runs, func() error {
		m, err := core.NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			return err
		}
		_, err = m.Fit(ds)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, rec)

	rec, err = timed("kernels-stream", s.Runs, func() error {
		m, err := core.NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			return err
		}
		_, err = m.FitStream(ds)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, rec)

	// Per-round PartialFit latency plus the finalize pass, on one streamed
	// model.
	m, err := core.NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		return nil, err
	}
	// Per-round latency: rounds are NOT identical ops (cost grows with the
	// accumulated state a round's items drag in, and the final round is a
	// runt batch), so the row is the best round within the trailing window
	// of full-size rounds — steady-state cost at the stream's length, with
	// noise filtered, never the runt.
	all := ds.Answers()
	batchSize := m.Config().BatchSize
	fullRounds := len(all) / batchSize
	window := 8
	if window > fullRounds {
		window = fullRounds
	}
	var roundMinNs int64
	sampled, fullRound := 0, 0
	for start := 0; start < len(all); start += batchSize {
		end := start + batchSize
		if end > len(all) {
			end = len(all)
		}
		begin := time.Now()
		if err := m.PartialFit(all[start:end]); err != nil {
			return nil, err
		}
		ns := time.Since(begin).Nanoseconds()
		if end-start == batchSize {
			fullRound++
			if fullRound > fullRounds-window {
				if sampled == 0 || ns < roundMinNs {
					roundMinNs = ns
				}
				sampled++
			}
		} else if fullRounds == 0 {
			// Stream smaller than one batch: the runt is all there is.
			if sampled == 0 || ns < roundMinNs {
				roundMinNs = ns
			}
			sampled++
		}
	}
	round := dims
	round.Method = "kernels-round"
	round.Runs = sampled
	round.NsPerOp = roundMinNs
	out = append(out, round)

	fin, err := timed("kernels-finalize", s.Runs, func() error {
		m.FinalizeOnline()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, fin)
	return out, nil
}

// benchMicroKernels times the dispatched mathx kernels in isolation, per
// registered backend and per length — the same shapes as the
// internal/mathx Benchmark* micro-benchmarks, folded into the BENCH json
// envelope so kernel-level wins and regressions are tracked alongside the
// end-to-end rows. Rows are ns per single kernel call (method
// "micro-<kernel>", profile "<backend>/n<len>"); they sit far below the
// regression gate's floor, so they are informational in the gate but
// refreshed in bench_baseline.json with every intentional perf shift.
func benchMicroKernels() []BenchRecord {
	restore := mathx.ActiveBackend()
	defer mathx.ForceBackend(restore)

	lens := []int{4, 16, 64, 256, 4096}
	rng := func(seed int64, n int, lo, span float64) []float64 {
		r := newDetRand(seed)
		v := make([]float64, n)
		for i := range v {
			v[i] = lo + span*r()
		}
		return v
	}

	var out []BenchRecord
	var sink float64
	for _, backend := range mathx.Backends() {
		if err := mathx.ForceBackend(backend); err != nil {
			continue
		}
		for _, n := range lens {
			iters := 1 + 1<<17/(n+16) // ~constant total work per row
			w := rng(3, n, -1, 2)
			x := rng(4, n, -1, 2)
			y := rng(5, n, -1, 2)
			pos := rng(6, n, 0.1, 20)
			logs := rng(7, n, -40, 40)
			dst := make([]float64, n)
			profile := fmt.Sprintf("%s/n%d", backend, n)
			for _, k := range []struct {
				kernel string
				op     func()
			}{
				{"micro-axpy", func() { mathx.Axpy(1.0009765625, x, y) }},
				{"micro-flooreddot", func() { sink += mathx.FlooredDot(w, x, 0.0) }},
				{"micro-sum", func() { sink += mathx.Sum(w) }},
				{"micro-digammarow", func() { mathx.DigammaRow(pos, dst) }},
				{"micro-logrow", func() { mathx.LogRow(pos, dst) }},
				{"micro-exprow", func() { mathx.ExpRow(w, dst) }},
				{"micro-logsumexp", func() { sink += mathx.LogSumExp(logs) }},
			} {
				out = append(out, BenchRecord{
					Method:  k.kernel,
					Profile: profile,
					Runs:    iters,
					NsPerOp: sampleMinNs(iters, k.op),
				})
			}
		}
	}
	_ = sink
	return out
}

// sampleMinNs is the min-of-reps estimator every micro row uses: each of 5
// samples times a batched inner loop of iters calls and divides, and the row
// reports the best sample — single calls are nanoseconds-to-microseconds, so
// batching beats timer granularity and the minimum filters scheduler noise.
func sampleMinNs(iters int, op func()) int64 {
	const reps = 5
	var minNs int64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		ns := time.Since(start).Nanoseconds() / int64(iters)
		if rep == 0 || ns < minNs {
			minNs = ns
		}
	}
	return minNs
}

// benchIngest times the ingestion hot path in isolation, independent of any
// dataset. Codec rows pit the hand-rolled NDJSON codec (serve.DecodeNDJSON /
// serve.EncodeAnswerLines, profiles hand/nN) against the encoding/json
// composition it is pinned byte-equal to (profiles stdlib/nN); one op is one
// whole N-record body. Append rows push N-record batches through a live
// journaled job whose fitter is parked, serial (c1/nN) and with 8 concurrent
// appenders (c8/nN); one op is one batch made durable, measured as wall
// clock over all batches so the c8 rows reflect the group-commit leader
// coalescing cohorts into one write+flush rather than per-caller latency.
// Like the microkernel rows these sit below the regression gate's floor, so
// they are informational in the gate but refreshed in bench_baseline.json
// with every intentional perf shift.
func benchIngest() ([]BenchRecord, error) {
	const (
		nItems   = 4096
		nWorkers = 512
		nLabels  = 64
	)
	r := newDetRand(11)
	randBatch := func(n int) []answers.Answer {
		batch := make([]answers.Answer, n)
		for i := range batch {
			var ls labelset.Set
			k := 1 + int(3*r())
			for j := 0; j < k; j++ {
				ls.Add(int(float64(nLabels) * r()))
			}
			batch[i] = answers.Answer{Item: int(float64(nItems) * r()), Worker: int(float64(nWorkers) * r()), Labels: ls}
		}
		return batch
	}
	var out []BenchRecord
	row := func(method, profile string, n, runs int, ns int64) {
		out = append(out, BenchRecord{
			Method: method, Profile: profile, Runs: runs,
			Items: nItems, Workers: nWorkers, Labels: nLabels, Answers: n,
			NsPerOp: ns,
		})
	}
	discard := func(answers.Answer) error { return nil }

	// jline mirrors the op=ans journal-line shape so the stdlib encode row
	// is the composition the hand encoder is pinned byte-equal to.
	type jline struct {
		Op string             `json:"op"`
		A  answers.JSONAnswer `json:"a"`
	}
	for _, n := range []int{16, 256, 4096} {
		batch := randBatch(n)
		// Decode rows read the HTTP wire form: bare one-answer-per-line
		// NDJSON, as POST /answers receives it.
		var body []byte
		for _, a := range batch {
			line, err := answers.MarshalAnswerJSON(a)
			if err != nil {
				return nil, err
			}
			body = append(append(body, line...), '\n')
		}
		if err := serve.DecodeNDJSON(body, nil, discard); err != nil {
			return nil, fmt.Errorf("decode self-check at n=%d: %w", n, err)
		}
		iters := 1 + 1<<13/n // ~constant total records per row
		row("ingest-decode", fmt.Sprintf("hand/n%d", n), n, iters, sampleMinNs(iters, func() {
			// Fresh arena per op, as the HTTP handler uses per request.
			var arena labelset.Arena
			_ = serve.DecodeNDJSON(body, &arena, discard)
		}))
		// Encode rows build the journal form of the whole batch — the encode
		// the ingestion hot path performs before appending.
		var buf []byte
		row("ingest-encode", fmt.Sprintf("hand/n%d", n), n, iters, sampleMinNs(iters, func() {
			buf = serve.EncodeAnswerLines(buf[:0], batch)
		}))
		row("ingest-decode", fmt.Sprintf("stdlib/n%d", n), n, iters, sampleMinNs(iters, func() {
			_ = answers.DecodeJSONL(bytes.NewReader(body), discard)
		}))
		row("ingest-encode", fmt.Sprintf("stdlib/n%d", n), n, iters, sampleMinNs(iters, func() {
			var sb []byte
			for _, a := range batch {
				line, _ := json.Marshal(jline{Op: "ans", A: answers.ToJSON(a)})
				sb = append(append(sb, line...), '\n')
			}
		}))
	}

	// Append rows run against a real journaled job with the fitter parked
	// (BatchWait far beyond the bench horizon, mini-batch far beyond the
	// ingested volume), so an op is journal append + durability wait + queue
	// admission and nothing else.
	dir, err := os.MkdirTemp("", "cpabench-ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg, err := serve.Open(serve.Config{Dir: dir, QueueLimit: 1 << 21, BatchWait: time.Hour})
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	for _, n := range []int{16, 256} {
		batch := randBatch(n)
		job, err := reg.Create(serve.JobSpec{
			ID: fmt.Sprintf("bench-ingest-n%d", n), Items: nItems, Workers: nWorkers, Labels: nLabels,
			Model: core.Config{Seed: 1, BatchSize: 1 << 19},
		})
		if err != nil {
			return nil, err
		}
		iters := 1 + 1<<11/n
		var ingErr error
		ns := sampleMinNs(iters, func() {
			if err := job.Ingest(batch); err != nil && ingErr == nil {
				ingErr = err
			}
		})
		if ingErr != nil {
			return nil, fmt.Errorf("serial append at n=%d: %w", n, ingErr)
		}
		row("ingest-append", fmt.Sprintf("c1/n%d", n), n, iters, ns)

		const conc = 8
		perG := iters/conc + 1
		var minNs int64
		var gcErr error
		var errMu sync.Mutex
		for rep := 0; rep < 5; rep++ {
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < perG; b++ {
						if err := job.Ingest(batch); err != nil {
							errMu.Lock()
							if gcErr == nil {
								gcErr = err
							}
							errMu.Unlock()
							return
						}
					}
				}()
			}
			wg.Wait()
			ns := time.Since(start).Nanoseconds() / int64(conc*perG)
			if rep == 0 || ns < minNs {
				minNs = ns
			}
		}
		if gcErr != nil {
			return nil, fmt.Errorf("group-commit append at n=%d: %w", n, gcErr)
		}
		row("ingest-group-commit", fmt.Sprintf("c%d/n%d", conc, n), n, conc*perG, minNs)
	}
	return out, nil
}

// newDetRand is a tiny deterministic generator (SplitMix64-derived) for the
// microkernel inputs — fixed inputs keep rows comparable across runs
// without dragging math/rand's global state into the report.
func newDetRand(seed int64) func() float64 {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	return func() float64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}

// benchAggregator mirrors cpacli's method table for the perf sweep.
func benchAggregator(name string, seed int64, parallelism int) (baselines.Aggregator, error) {
	cfg := core.Config{Seed: seed, Parallelism: parallelism}
	switch name {
	case "cpa":
		return core.NewAggregator(cfg), nil
	case "cpa-online":
		return core.NewOnlineAggregator(cfg), nil
	case "noz":
		return core.NewNoZAggregator(cfg), nil
	case "nol":
		return core.NewNoLAggregator(cfg), nil
	case "mv":
		return baselines.NewMajorityVote(), nil
	case "em":
		return baselines.NewDawidSkene(), nil
	case "bcc":
		return baselines.NewBCC(), nil
	case "cbcc":
		return baselines.NewCBCC(), nil
	default:
		return nil, fmt.Errorf("unknown method %q", name)
	}
}
