package loadgen

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/datasets"
	"cpa/internal/obs"
	"cpa/internal/serve"
)

// TestScenarios runs every scenario of the library in-process at a small
// scale — the repo's serving-layer integration suite. Each subtest drives
// the full closed loop (HTTP NDJSON ingestion, background readers, phase
// quiesces, chaos kills where configured) and requires every invariant to
// hold.
func TestScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Config{Scenario: sc.Name, Scale: 0.04, Seed: 3, Logf: t.Logf})
			if err != nil {
				t.Fatalf("running %s: %v", sc.Name, err)
			}
			for _, iv := range rep.Failed() {
				t.Errorf("invariant %s[%s] failed: %s", iv.Name, iv.Job, iv.Detail)
			}
			if rep.TotalAnswers == 0 {
				t.Fatal("scenario planned no answers")
			}
			if len(rep.Phases) != len(sc.Phases) {
				t.Fatalf("recorded %d phases, scenario declares %d", len(rep.Phases), len(sc.Phases))
			}
			for _, ph := range rep.Phases {
				if len(ph.PR) == 0 {
					t.Errorf("phase %q recorded no per-tenant P/R", ph.Name)
				}
			}
			if sc.ChaosKills > 0 {
				if len(rep.Kills) != sc.ChaosKills {
					t.Errorf("expected %d chaos kills, got %d", sc.ChaosKills, len(rep.Kills))
				}
				exact := 0
				for _, iv := range rep.Invariants {
					if iv.Name == "crash-recovery-exact" && iv.Status == StatusPass {
						exact++
					}
				}
				if exact < sc.ChaosKills {
					t.Errorf("only %d crash-recovery-exact passes for %d kills", exact, sc.ChaosKills)
				}
			}
			if sc.Churn {
				deleted := 0
				for _, tr := range rep.Tenants {
					if tr.Deleted {
						deleted++
					}
				}
				if deleted == 0 {
					t.Error("churn scenario deleted no tenant")
				}
			}
			t.Log(rep.Summary())
		})
	}
}

// TestScenarioLibraryComplete pins the acceptance floor: at least 10 named
// scenarios, unique names, all resolvable via GetScenario.
func TestScenarioLibraryComplete(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 10 {
		t.Fatalf("scenario library has %d entries, want >= 10", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate scenario name %q", name)
		}
		seen[name] = true
		sc, err := GetScenario(name)
		if err != nil {
			t.Fatalf("GetScenario(%q): %v", name, err)
		}
		if sc.Description == "" || len(sc.Phases) == 0 {
			t.Errorf("scenario %q lacks description or phases", name)
		}
	}
	if _, err := GetScenario("no-such-scenario"); err == nil {
		t.Error("GetScenario accepted an unknown name")
	}
}

// TestBuildPlanDeterministic pins that workload construction is a pure
// function of (scenario, scale, seed): streams, phase cuts and chaos kill
// points must be identical across builds.
func TestBuildPlanDeterministic(t *testing.T) {
	for _, name := range []string{"uniform", "chaos-kill", "churn", "straggler"} {
		sc, err := GetScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := buildPlan(sc, 0.04, 9)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(sc, 0.04, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.kills, b.kills) {
			t.Errorf("%s: kill points differ: %v vs %v", name, a.kills, b.kills)
		}
		if len(a.tenants) != len(b.tenants) {
			t.Fatalf("%s: tenant counts differ", name)
		}
		for ti := range a.tenants {
			ta, tb := a.tenants[ti], b.tenants[ti]
			if !reflect.DeepEqual(ta.cuts, tb.cuts) {
				t.Errorf("%s tenant %d: cuts differ", name, ti)
			}
			if len(ta.stream) != len(tb.stream) {
				t.Fatalf("%s tenant %d: stream lengths differ", name, ti)
			}
			for i := range ta.stream {
				x, y := ta.stream[i], tb.stream[i]
				if x.Item != y.Item || x.Worker != y.Worker || !x.Labels.Equal(y.Labels) {
					t.Fatalf("%s tenant %d: stream diverges at %d", name, ti, i)
				}
			}
		}
	}
}

// journalLine mirrors serve's journal wire form for the bug-injection test.
type journalLine struct {
	Op string              `json:"op"`
	A  *answers.JSONAnswer `json:"a,omitempty"`
	N  int                 `json:"n,omitempty"`
}

// TestInvariantCheckerCatchesArrivalOrderBug is the regression test for the
// PR 2 class of failure: persistence that silently re-orders answers
// (the old code rebuilt per-worker lists item-major, changing float
// reduction order after reload). It runs a scenario, confirms the checker
// passes on the honest journal, then rewrites the journal with its answers
// re-grouped item-major — exactly the old bug's on-disk effect — and
// requires the served-equals-replay checker to flag the divergence.
func TestInvariantCheckerCatchesArrivalOrderBug(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Config{Scenario: "uniform", Scale: 0.04, Seed: 11, DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if fails := rep.Failed(); len(fails) > 0 {
		t.Fatalf("clean run failed invariants: %+v", fails)
	}
	ten := rep.Tenants[0]
	snap := rep.FinalSnapshots[ten.ID]
	if snap == nil || snap.Round == 0 {
		t.Fatal("no final snapshot to check against")
	}
	if err := CheckReplay(ten.JournalPath, ten.Spec, snap); err != nil {
		t.Fatalf("checker rejected the honest journal: %v", err)
	}

	if err := rewriteJournalItemMajor(ten.JournalPath); err != nil {
		t.Fatal(err)
	}
	err = CheckReplay(ten.JournalPath, ten.Spec, snap)
	if err == nil {
		t.Fatal("invariant checker missed the injected arrival-order persistence bug")
	}
	t.Logf("checker caught the injected bug: %v", err)
}

// rewriteJournalItemMajor re-groups a journal's answer lines item-major
// (stable by item, then worker) while keeping every fit marker's position
// and count intact — the durable-state signature of the pre-fix PR 2 bug.
func rewriteJournalItemMajor(path string) error {
	var lines []journalLine
	var ans []answers.Answer
	err := serve.ReadJournal(path, func(e serve.JournalEntry) error {
		if e.Answer != nil {
			ans = append(ans, *e.Answer)
			lines = append(lines, journalLine{Op: "ans"})
		} else {
			lines = append(lines, journalLine{Op: "fit", N: e.FitN})
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(ans, func(a, b int) bool {
		if ans[a].Item != ans[b].Item {
			return ans[a].Item < ans[b].Item
		}
		return ans[a].Worker < ans[b].Worker
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	next := 0
	for _, line := range lines {
		if line.Op == "ans" {
			ja := answers.ToJSON(ans[next])
			next++
			line.A = &ja
		}
		raw, err := json.Marshal(line)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(raw)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestCheckReplayDetectsTamperedSnapshot covers the other direction: a
// served snapshot that disagrees with the journal in a single label or
// confidence must be rejected.
func TestCheckReplayDetectsTamperedSnapshot(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Config{Scenario: "trickle", Scale: 0.04, Seed: 5, DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ten := rep.Tenants[0]
	snap := rep.FinalSnapshots[ten.ID]
	if err := CheckReplay(ten.JournalPath, ten.Spec, snap); err != nil {
		t.Fatalf("checker rejected the honest snapshot: %v", err)
	}

	tampered := *snap
	tampered.Consensus = append([]serve.ItemSnapshot(nil), snap.Consensus...)
	found := false
	for i, item := range tampered.Consensus {
		if len(item.Labels) > 0 {
			mod := item
			mod.Labels = append([]int(nil), item.Labels...)
			mod.Labels[0]++
			tampered.Consensus[i] = mod
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no non-empty consensus item to tamper with")
	}
	if err := CheckReplay(ten.JournalPath, ten.Spec, &tampered); err == nil {
		t.Fatal("checker accepted a tampered snapshot")
	}

	shifted := *snap
	shifted.Round++
	if err := CheckReplay(ten.JournalPath, ten.Spec, &shifted); err == nil {
		t.Fatal("checker accepted a snapshot with a shifted round count")
	}
}

// TestHistQuantiles sanity-checks the latency histogram digest, and that a
// serve job's exported publish and append histograms digest through the
// same summary: they share obs.Hist's buckets, so bucket counts add up to
// the count and every quantile lies inside the observed range.
func TestHistQuantiles(t *testing.T) {
	var h obs.Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(time.Duration(i) * time.Millisecond))
	}
	s := summarize(h.Snapshot())
	if s.Count != 1000 {
		t.Fatalf("count %d", s.Count)
	}
	if s.MaxMs != 1000 {
		t.Fatalf("max %.1fms, want 1000", s.MaxMs)
	}
	if s.P50Ms <= 100 || s.P50Ms > 1000 {
		t.Errorf("p50 %.1fms implausible for a uniform 1..1000ms stream", s.P50Ms)
	}
	if s.P99Ms < s.P90Ms || s.P90Ms < s.P50Ms {
		t.Errorf("quantiles not monotone: p50=%.1f p90=%.1f p99=%.1f", s.P50Ms, s.P90Ms, s.P99Ms)
	}
	if s.MeanMs < 400 || s.MeanMs > 600 {
		t.Errorf("mean %.1fms, want ~500", s.MeanMs)
	}
	snap := h.Snapshot()
	if got := summaryFromCounts(snap.Counts[:], snap.N, time.Duration(snap.Sum), time.Duration(snap.Max)); got != s {
		t.Errorf("digest of exported counters %+v, want %+v", got, s)
	}
	if got := summarize(h.Reset()); got.Count != 1000 {
		t.Errorf("Reset returned count %d", got.Count)
	}
	if after := summarize(h.Snapshot()); after.Count != 0 || after.MaxMs != 0 {
		t.Errorf("histogram not cleared: %+v", after)
	}

	ds, _, err := datasets.Load("image", 0.04, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := serve.Open(serve.Config{Dir: t.TempDir(), BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	job, err := reg.Create(serve.JobSpec{ID: "hist", Items: ds.NumItems, Workers: ds.NumWorkers,
		Labels: ds.NumLabels, Model: core.Config{Seed: 3, BatchSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	for start := 0; start < len(all); start += 16 {
		if err := job.Ingest(all[start:min(start+16, len(all))]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.Stats().FittedAnswers < int64(len(all)) {
		if time.Now().After(deadline) {
			t.Fatal("job never fitted its stream")
		}
		time.Sleep(time.Millisecond)
	}
	st := job.Stats()
	for name, p := range map[string]serve.PublishStats{"publish": st.Publish, "appends": st.Ingest.Appends} {
		if len(p.Log2Buckets) != obs.Buckets {
			t.Fatalf("%s: %d buckets exported, want %d", name, len(p.Log2Buckets), obs.Buckets)
		}
		var total int64
		for _, c := range p.Log2Buckets {
			total += c
		}
		got := summaryFromCounts(p.Log2Buckets, p.Count, time.Duration(p.SumNs), time.Duration(p.MaxNs))
		if p.Count == 0 || total != p.Count || got.Count != p.Count {
			t.Fatalf("%s: %d samples, buckets hold %d, digest counts %d", name, p.Count, total, got.Count)
		}
		if got.MaxMs != nsToMs(p.MaxNs) || got.MeanMs != nsToMs(p.SumNs/p.Count) {
			t.Errorf("%s: digest %+v disagrees with the exported max %dns and sum %dns", name, got, p.MaxNs, p.SumNs)
		}
		if got.P50Ms > got.P99Ms || got.P99Ms > got.MaxMs {
			t.Errorf("%s: quantiles outside the observed range: %+v", name, got)
		}
	}
}

// TestTrafficModels pins that the arrival models are deterministic under a
// seed and have their declared shapes.
func TestTrafficModels(t *testing.T) {
	gaps := func(kind ArrivalKind, n int) []time.Duration {
		sc := Scenario{Arrival: kind, Chunk: 64, Rate: 1000}
		tm := newTrafficModel(sc, 42)
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = tm.gap()
		}
		return out
	}
	if !reflect.DeepEqual(gaps(ArrivalPoisson, 50), gaps(ArrivalPoisson, 50)) {
		t.Error("poisson gaps not deterministic under a seed")
	}
	steady := gaps(ArrivalSteady, 5)
	for _, g := range steady {
		if g != 64*time.Millisecond {
			t.Fatalf("steady gap %v, want 64ms at 1000/s with chunk 64", g)
		}
	}
	bursty := gaps(ArrivalBursty, burstSize)
	for i := 0; i < burstSize-1; i++ {
		if bursty[i] != 0 {
			t.Fatalf("gap %d within a burst is %v, want 0", i, bursty[i])
		}
	}
	if bursty[burstSize-1] <= 0 {
		t.Fatal("no idle gap between bursts")
	}
	trickle := gaps(ArrivalTrickle, 1)[0]
	if trickle <= steady[0] {
		t.Errorf("trickle gap %v not slower than steady %v", trickle, steady[0])
	}
}

// TestVirtualClock pins that virtual sleeps advance time instantly.
func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	t0 := c.Now()
	start := time.Now()
	c.Sleep(10 * time.Hour)
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("virtual sleep blocked for %v", wall)
	}
	if got := c.Now().Sub(t0); got != 10*time.Hour {
		t.Fatalf("virtual clock advanced %v, want 10h", got)
	}
	c.Sleep(-time.Hour)
	if got := c.Now().Sub(t0); got != 10*time.Hour {
		t.Fatalf("negative sleep moved the clock: %v", got)
	}
}

// TestEvenCuts covers the churn phase-layout helper.
func TestEvenCuts(t *testing.T) {
	cases := []struct {
		n, createAt, deleteAt, phases int
		want                          []int
	}{
		{100, 0, -1, 2, []int{50, 100}},
		{90, 0, -1, 3, []int{30, 60, 90}},
		{100, 0, 1, 3, []int{50, 100, 100}}, // deleted after phase 1
		{100, 2, -1, 3, []int{0, 0, 100}},   // created at phase 2
	}
	for _, c := range cases {
		got := evenCuts(c.n, c.createAt, c.deleteAt, c.phases)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("evenCuts(%d,%d,%d,%d) = %v, want %v", c.n, c.createAt, c.deleteAt, c.phases, got, c.want)
		}
	}
}
