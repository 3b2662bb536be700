package serve

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cpa/internal/core"
)

// scheduleSpec is a job whose minimum fill is 8 answers (BatchSize 64).
func scheduleSpec(id string, items, workers, labels int) JobSpec {
	return JobSpec{ID: id, Items: items, Workers: workers, Labels: labels,
		Model: core.Config{Seed: 7, BatchSize: 64}}
}

// fitSizes returns the answer count of every fit marker in a job's journal.
func fitSizes(t testing.TB, dir, id string) []int {
	t.Helper()
	var sizes []int
	err := ReadJournal(JournalPath(dir, id), func(e JournalEntry) error {
		if e.FitN > 0 {
			sizes = append(sizes, e.FitN)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestMinFillStartsRound ingests BatchSize/8 answers into a job whose
// BatchWait is an hour: the idle fitter must start a round on them at once
// and publish a snapshot that covers them, counted as a min-fill start.
func TestMinFillStartsRound(t *testing.T) {
	ds := shuffledStream(t, 0.08, 3)
	reg := mustOpen(t, Config{BatchWait: time.Hour})
	defer reg.Close()
	job, err := reg.Create(scheduleSpec("fill", ds.NumItems, ds.NumWorkers, ds.NumLabels))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Ingest(ds.Answers()[:8]); err != nil {
		t.Fatal(err)
	}
	snap := waitSnapshot(t, job, 8)
	if snap.Round != 1 || snap.Answers != 8 {
		t.Fatalf("snapshot at round %d with %d answers, want round 1 with 8", snap.Round, snap.Answers)
	}
	if got, want := job.Stats().RoundStarts, (RoundStarts{MinFill: 1}); got != want {
		t.Fatalf("round starts %+v, want %+v", got, want)
	}
}

// TestBelowMinFillStartsNoRound ingests one answer short of the minimum
// fill under an hour's BatchWait: no round may start, until the answer
// that completes the fill arrives.
func TestBelowMinFillStartsNoRound(t *testing.T) {
	ds := shuffledStream(t, 0.08, 3)
	reg := mustOpen(t, Config{BatchWait: time.Hour})
	defer reg.Close()
	job, err := reg.Create(scheduleSpec("short", ds.NumItems, ds.NumWorkers, ds.NumLabels))
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	for k := range 7 {
		if err := job.Ingest(all[k : k+1]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if st := job.Stats(); st.FitRounds != 0 || st.FittedAnswers != 0 || st.RoundStarts != (RoundStarts{}) {
		t.Fatalf("7 queued answers started a round: %d rounds, %d fitted, starts %+v",
			st.FitRounds, st.FittedAnswers, st.RoundStarts)
	}
	if err := job.Ingest(all[7:8]); err != nil {
		t.Fatal(err)
	}
	if snap := waitSnapshot(t, job, 8); snap.Round != 1 {
		t.Fatalf("the eighth answer published round %d, want 1", snap.Round)
	}
}

// TestBacklogTakesFullRounds holds the fitter inside a min-fill round while
// a backlog of more than two batches queues up: once the fitter is free the
// backlog must be fitted in full BatchSize rounds, and only its remainder in
// a smaller one.
func TestBacklogTakesFullRounds(t *testing.T) {
	ds := shuffledStream(t, 0.08, 3)
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	fitRoundHook = func(j *Job) {
		if first {
			first = false
			close(entered)
			<-release
		}
	}
	t.Cleanup(func() { fitRoundHook = nil })
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Hour, SaveEvery: 1 << 30})
	job, err := reg.Create(scheduleSpec("backlog", ds.NumItems, ds.NumWorkers, ds.NumLabels))
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()[:8+150]
	if err := job.Ingest(all[:8]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the minimum fill started no round")
	}
	for start := 8; start < len(all); start += 10 {
		if err := job.Ingest(all[start:min(start+10, len(all))]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	waitSnapshot(t, job, len(all))
	if got, want := job.Stats().RoundStarts, (RoundStarts{Full: 2, MinFill: 2}); got != want {
		t.Fatalf("round starts %+v, want %+v", got, want)
	}
	reg.Close()
	if got, want := fitSizes(t, dir, "backlog"), []int{8, 64, 64, 22}; !slices.Equal(got, want) {
		t.Fatalf("fit rounds of %v answers, want %v", got, want)
	}
}

// TestServedEqualsReplayAcrossRoundStarts streams one job through rounds of
// every start kind — full batches, min-fill rounds and BatchWait-timed
// trickles — and requires the served snapshot to equal the journal's
// replay, and a recovery's, bit for bit: fit markers carry the schedule,
// whatever started each round.
func TestServedEqualsReplayAcrossRoundStarts(t *testing.T) {
	ds := shuffledStream(t, 0.08, 9)
	dir := t.TempDir()
	cfg := Config{Dir: dir, BatchWait: 5 * time.Millisecond, SaveEvery: 3}
	spec := scheduleSpec("mixed", ds.NumItems, ds.NumWorkers, ds.NumLabels)
	reg := mustOpen(t, cfg)
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	next := 0
	feed := func(n int) {
		t.Helper()
		if err := job.Ingest(all[next : next+n]); err != nil {
			t.Fatal(err)
		}
		next += n
		waitSnapshot(t, job, next)
	}
	const cycles = 4
	for range cycles {
		feed(64) // a full batch
		feed(3)  // below the fill: BatchWait starts it
		feed(10) // the minimum fill starts it at once
	}
	want := RoundStarts{Full: cycles, MinFill: cycles, BatchWait: cycles}
	if got := job.Stats().RoundStarts; got != want {
		t.Fatalf("round starts %+v, want %+v", got, want)
	}
	served := job.Snapshot()
	reg.Close()

	ap, err := NewApplier(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadJournal(JournalPath(dir, spec.ID), ap.Apply); err != nil {
		t.Fatal(err)
	}
	sameConsensus(t, served, ap.Snapshot())

	reg2 := mustOpen(t, cfg)
	defer reg2.Close()
	job2, ok := reg2.Get(spec.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	sameConsensus(t, served, job2.Snapshot())
}

// checkpointCoverage returns the answers the job's model.gob covers, or 0
// when there is none.
func checkpointCoverage(t testing.TB, dir, id string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "jobs", id, CheckpointFileName))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return m.TotalIngested()
}

// TestSaveEveryCountsAnswers fits min-fill rounds of 8 answers at
// BatchSize 64 and SaveEvery 2: a checkpoint is due once 128 answers have
// been fitted since the last one, not every second round, so the fitter
// checkpoints at 128 and 256 answers only. A kill after 288 answers and a
// reopen carry the 32 answers fitted since the last checkpoint into the
// cadence: the next checkpoint lands at 384, not 128 answers after the
// reopen.
func TestSaveEveryCountsAnswers(t *testing.T) {
	ds := shuffledStream(t, 0.08, 3)
	dir := t.TempDir()
	const id = "cadence"
	// Each round starts after the previous one's checkpoint, if any, was
	// written: the hook records the coverage of every checkpoint the
	// fitter has written so far.
	var coverages []int
	fitRoundHook = func(j *Job) {
		if c := checkpointCoverage(t, dir, id); c > 0 && (len(coverages) == 0 || coverages[len(coverages)-1] != c) {
			coverages = append(coverages, c)
		}
	}
	t.Cleanup(func() { fitRoundHook = nil })
	cfg := Config{Dir: dir, BatchWait: time.Hour, SaveEvery: 2}
	all := ds.Answers()
	feed := func(job *Job, from, to int) {
		t.Helper()
		for n := from; n < to; n += 8 {
			if err := job.Ingest(all[n : n+8]); err != nil {
				t.Fatal(err)
			}
			waitSnapshot(t, job, n+8)
		}
	}

	reg := mustOpen(t, cfg)
	job, err := reg.Create(scheduleSpec(id, ds.NumItems, ds.NumWorkers, ds.NumLabels))
	if err != nil {
		t.Fatal(err)
	}
	feed(job, 0, 296) // the 37th round's hook sees the 36th round's state
	if want := []int{128, 256}; !slices.Equal(coverages, want) {
		t.Fatalf("checkpoints covered %v answers, want %v", coverages, want)
	}
	if sizes := fitSizes(t, dir, id); len(sizes) != 37 || slices.ContainsFunc(sizes, func(n int) bool { return n != 8 }) {
		t.Fatalf("fit rounds %v, want 37 of 8 answers", sizes)
	}
	reg.CrashAll() // 40 answers fitted past the 256-answer checkpoint

	reg = mustOpen(t, cfg)
	defer reg.Close()
	job, ok := reg.Get(id)
	if !ok {
		t.Fatalf("job %s not recovered", id)
	}
	if job.replayed != 296-256 {
		t.Fatalf("recovery replayed %d answers past the checkpoint, want %d", job.replayed, 296-256)
	}
	feed(job, 296, 400)
	if want := []int{128, 256, 384}; !slices.Equal(coverages, want) {
		t.Fatalf("checkpoints covered %v answers across the reopen, want %v", coverages, want)
	}
}
