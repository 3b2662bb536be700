package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
	"cpa/internal/serve"
)

// TestVisibilityMapping maps two acked POSTs to the journal positions of
// their last answers and to the first publication covering each, including
// one that was already visible when its ack arrived.
func TestVisibilityMapping(t *testing.T) {
	dir := t.TempDir()
	reg, err := serve.Open(serve.Config{Dir: dir, BatchWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.Create(serve.JobSpec{ID: "j", Items: 4, Workers: 4, Labels: 3, Model: core.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ans := func(item, worker int) answers.Answer {
		return answers.Answer{Item: item, Worker: worker, Labels: labelset.Of(item % 3)}
	}
	a := []answers.Answer{ans(0, 0), ans(1, 0), ans(2, 1)}
	b := []answers.Answer{ans(3, 2), ans(0, 3)}
	for _, batch := range [][]answers.Answer{a, b} {
		if err := job.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	reg.CrashAll()

	pos, err := journalPositions(serve.JournalPath(dir, "j"), 4)
	if err != nil {
		t.Fatal(err)
	}
	lastA, okA := lastPosition(pos, a, 4)
	lastB, okB := lastPosition(pos, b, 4)
	if !okA || !okB || lastA != 3 || lastB != 5 {
		t.Fatalf("last positions %d,%v and %d,%v; want 3 and 5", lastA, okA, lastB, okB)
	}
	if _, ok := lastPosition(pos, []answers.Answer{ans(3, 3)}, 4); ok {
		t.Fatal("an answer missing from the journal resolved to a position")
	}

	t0 := time.Now()
	pubs := []obs{
		{round: 0, answers: 0, published: t0},
		{round: 1, answers: 3, published: t0.Add(10 * time.Millisecond)},
		{round: 2, answers: 5, published: t0.Add(30 * time.Millisecond)},
	}
	// A's ack arrives after the round covering it was published: visible at
	// ack, latency 0.
	o, ok := firstCovering(pubs, lastA)
	if !ok || o.round != 1 {
		t.Fatalf("A covered by round %d (%v), want 1", o.round, ok)
	}
	if d := visibleAfter(t0.Add(12*time.Millisecond), o.published); d != 0 {
		t.Fatalf("A already visible at ack, got latency %v", d)
	}
	// B is acked at 12 ms and first covered by the 30 ms publication.
	o, ok = firstCovering(pubs, lastB)
	if !ok || o.round != 2 {
		t.Fatalf("B covered by round %d (%v), want 2", o.round, ok)
	}
	if d := visibleAfter(t0.Add(12*time.Millisecond), o.published); d != 18*time.Millisecond {
		t.Fatalf("B latency %v, want 18ms", d)
	}
	if _, ok := firstCovering(pubs, 6); ok {
		t.Fatal("position 6 covered by a publication that holds 5 answers")
	}
	if got := answersAt(pubs, t0.Add(20*time.Millisecond)); got != 3 {
		t.Fatalf("answers visible at 20ms: %d, want 3", got)
	}
}

// TestWatcherSeesPublicationBeforeHalt checks that a publication made just
// before halt is observed even when no tick falls between the two: the
// watcher polls once more after it is told to stop.
func TestWatcherSeesPublicationBeforeHalt(t *testing.T) {
	reg, err := serve.Open(serve.Config{Dir: t.TempDir(), BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.CrashAll()
	job, err := reg.Create(serve.JobSpec{ID: "j", Items: 4, Workers: 4, Labels: 3, Model: core.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := watch([]*serve.Job{job}, false, time.Hour)
	batch := []answers.Answer{
		{Item: 0, Worker: 0, Labels: labelset.Of(0)},
		{Item: 1, Worker: 1, Labels: labelset.Of(1)},
	}
	if err := job.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s := job.Snapshot(); s == nil || s.Answers < len(batch); s = job.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("the batch was not published")
		}
		time.Sleep(time.Millisecond)
	}
	w.halt()
	if _, ok := firstCovering(w.obs[0], int64(len(batch))); !ok {
		t.Fatalf("the watcher missed the publication covering the batch: saw %+v", w.obs[0])
	}
}

// TestQuantileRule checks the nearest-rank quantiles, the refusal of a tail
// with fewer than ten samples beyond it, and quartiles matching Python's
// statistics.quantiles(n=4).
func TestQuantileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := quantile(seq(999), 0.99); ok {
		t.Fatal("p99 reported from 999 samples")
	}
	if v, ok := quantile(seq(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (%v), want 990", v, ok)
	}
	if _, ok := quantile(seq(99), 0.9); ok {
		t.Fatal("p90 reported from 99 samples")
	}
	if v, ok := quantile(seq(1), 0.5); !ok || v != 1 {
		t.Fatalf("p50 of one sample = %v (%v)", v, ok)
	}
	if v, ok := quantile(seq(4), 0.5); !ok || v != 2 {
		t.Fatalf("p50 of 1..4 = %v (%v), want 2", v, ok)
	}
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestOpenLoopChargesStalls stalls the server on the first request and
// checks that the requests queued behind it are timed from their due times.
func TestOpenLoopChargesStalls(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	lane := []*req{
		{at: 0, ans: []answers.Answer{{}}},
		{at: 10 * time.Millisecond, ans: []answers.Answer{{}}},
		{at: 20 * time.Millisecond, ans: []answers.Answer{{}}},
	}
	start := time.Now()
	openLoop(c, start, lane, []string{"j"})
	for i, q := range lane {
		if !q.ok() {
			t.Fatalf("request %d failed: status %d, %v", i, q.status, q.err)
		}
		if !q.due.Equal(start.Add(q.at)) {
			t.Fatalf("request %d due at %v, want its schedule time", i, q.due.Sub(start))
		}
	}
	// The second request was due at 10 ms but could only be sent once the
	// first returned at ≥50 ms: its latency counts the ≥40 ms it waited.
	if lag := lane[1].sent.Sub(lane[1].due); lag < 35*time.Millisecond {
		t.Fatalf("second request sent %v after its due time, want ≥35ms", lag)
	}
	if lat := lane[1].done.Sub(lane[1].due); lat < 40*time.Millisecond {
		t.Fatalf("second request latency %v from its due time, want ≥40ms", lat)
	}
}

// TestShortSmoke runs every workload at smoke-test size, untraced and traced,
// and checks that every correctness check passes, that the command runs the
// workloads BENCHMARK.json names, and that it reports exactly the metrics
// BENCHMARK.json lists.
func TestShortSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json lists workload %s, which the command does not run", w.Name)
		}
	}
	for _, name := range workloadNames {
		s, err := specFor(name, true)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runWorkload(def, s, 3, time.Second, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", name, c.Name, c.Detail)
			}
		}
		for _, g := range def.EndToEnd {
			if _, ok := r.EndToEnd[g.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not reported", name, g.Name)
			}
		}
		listed := map[string]bool{}
		for _, l := range def.PerLayer {
			listed[l.Name] = true
			if m, ok := r.Layers[l.Name]; !ok || m.Unit != l.Unit {
				t.Errorf("%s: per-layer metric %s not reported in %s (got %+v)", name, l.Name, l.Unit, m)
			}
		}
		for m := range r.Layers {
			if !listed[m] {
				t.Errorf("%s: per-layer metric %s is missing from BENCHMARK.json", name, m)
			}
		}
	}
}

// TestCompareReports gates a new report against a base by the bounds of a
// BENCHMARK.json: a worsening past the bound regresses, one inside it does
// not, and reports from different GOMAXPROCS are refused.
func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	def := &benchmarkSpec{
		Workloads: []listedWorkload{{Name: steady}},
		EndToEnd: []gatedMetric{
			{Name: "visible_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
			{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	write := func(name string, procs int, visible, rps float64) string {
		path := filepath.Join(dir, name)
		f := reportFile{Env: env{GOMAXPROCS: procs}, Runs: []*report{{Workload: steady, EndToEnd: metricSet{
			"visible_p50_ms": {Value: visible, Unit: "ms"},
			"records_per_s":  {Value: rps, Unit: "1/s"},
		}}}}
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 2, 100, 1000)
	var out strings.Builder
	// visible_p50_ms may worsen by 0.25 × 100 = 25 ms; records_per_s by
	// 0.1 × 1000 = 100/s.
	if n, err := compareReports(&out, def, base, write("ok.json", 2, 120, 950)); err != nil || n != 0 {
		t.Fatalf("within bounds: %d regressions, %v\n%s", n, err, out.String())
	}
	if n, err := compareReports(&out, def, base, write("slow.json", 2, 130, 850)); err != nil || n != 2 {
		t.Fatalf("past bounds: %d regressions (want 2), %v\n%s", n, err, out.String())
	}
	if _, err := compareReports(&out, def, base, write("procs.json", 4, 100, 1000)); err == nil {
		t.Fatal("compared reports run at different GOMAXPROCS")
	}
}
