package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
)

// idleJob returns an ephemeral job whose fitter is not running, so a test
// can call nextBatch itself and play the fitter.
func idleJob(t *testing.T, batchWait time.Duration) *Job {
	t.Helper()
	spec := JobSpec{ID: "w", Items: 8, Workers: 8, Labels: 4, Model: core.Config{Seed: 1, BatchSize: 64}}
	model, err := core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return newJob(spec, model, "", Config{QueueLimit: 1 << 10, SaveEvery: 16, BatchWait: batchWait})
}

func oneAnswer(i int) []answers.Answer {
	return []answers.Answer{{Item: i % 8, Worker: i / 8 % 8, Labels: labelset.Of(i % 4)}}
}

// takeBatch runs nextBatch on a goroutine and fails the test if it has not
// returned within limit.
func takeBatch(t *testing.T, j *Job, limit time.Duration) []answers.Answer {
	t.Helper()
	got := make(chan []answers.Answer, 1)
	go func() {
		bp, ok := j.nextBatch()
		if !ok {
			got <- nil
			return
		}
		got <- append([]answers.Answer(nil), *bp...)
	}()
	select {
	case b := <-got:
		return b
	case <-time.After(limit):
		// Release the blocked nextBatch before failing.
		j.mu.Lock()
		j.closed, j.crashed = true, true
		j.mu.Unlock()
		j.signal()
		<-got
		t.Fatalf("nextBatch still blocked after %v", limit)
		return nil
	}
}

// TestNextBatchWindowCountsFromAdmission: the BatchWait window opens when
// the oldest queued answer was admitted, not when the fitter looks. With an
// hour-long window and answers admitted over an hour ago, nextBatch must
// return at once.
func TestNextBatchWindowCountsFromAdmission(t *testing.T) {
	j := idleJob(t, time.Hour)
	for i := 0; i < 3; i++ {
		if err := j.Ingest(oneAnswer(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock()
	j.windowStart = time.Now().Add(-time.Hour - time.Minute)
	j.mu.Unlock()
	if b := takeBatch(t, j, 5*time.Second); len(b) != 3 {
		t.Fatalf("took %d answers, want the 3 queued", len(b))
	}
}

// TestNextBatchTrickleDuringSlowRound: an answer admitted while the fitter
// is inside a slow round is taken BatchWait after its admission, or as soon
// as that round ends if it ends later — not a whole BatchWait after the
// round ends.
func TestNextBatchTrickleDuringSlowRound(t *testing.T) {
	for _, tc := range []struct {
		name             string
		batchWait, round time.Duration
	}{
		{"round-shorter-than-wait", 600 * time.Millisecond, 500 * time.Millisecond},
		{"round-longer-than-wait", 400 * time.Millisecond, 900 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := idleJob(t, tc.batchWait)
			if err := j.Ingest(oneAnswer(0)); err != nil {
				t.Fatal(err)
			}
			takeBatch(t, j, 5*time.Second)
			// The slow round: the fitter is busy, and one answer arrives
			// shortly after it started.
			start := time.Now()
			time.Sleep(20 * time.Millisecond)
			admitted := time.Now()
			if err := j.Ingest(oneAnswer(1)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(tc.round - time.Since(start))
			end := time.Now()
			if b := takeBatch(t, j, 5*time.Second); len(b) != 1 {
				t.Fatalf("took %d answers, want 1", len(b))
			}
			taken := time.Now()
			// nextBatch can first see the answer's window ripe at due; a
			// window opened when the round ended would ripen BatchWait
			// after end, behind due by stale. Three quarters of that gap is
			// slack for scheduling, so the test fails whenever the window
			// opens at the round's end.
			due := admitted.Add(tc.batchWait)
			if end.After(due) {
				due = end
			}
			stale := end.Add(tc.batchWait).Sub(due)
			if late := taken.Sub(due); late > stale*3/4 {
				t.Fatalf("answer taken %v after it was due, slack %v (admitted %v into a %v round, BatchWait %v)",
					late, stale*3/4, admitted.Sub(start), tc.round, tc.batchWait)
			}
		})
	}
}

// TestCheckpointCadenceSurvivesReopen: the fit rounds recovery replays past
// the checkpoint count toward the next one, so a job killed again within
// SaveEvery rounds of a reopen replays fewer than SaveEvery rounds.
func TestCheckpointCadenceSurvivesReopen(t *testing.T) {
	const saveEvery, batch = 4, 16
	dir := t.TempDir()
	ds := shuffledStream(t, 0.08, 3)
	all := ds.Answers()
	spec := JobSpec{
		ID: "cad", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 3, BatchSize: batch},
	}
	cfg := Config{Dir: dir, SaveEvery: saveEvery, BatchWait: time.Hour}
	next := 0
	// fitRounds ingests whole batches one at a time, so each is one round.
	fitRounds := func(j *Job, n int) {
		for r := 0; r < n; r++ {
			if err := j.Ingest(all[next : next+batch]); err != nil {
				t.Fatal(err)
			}
			next += batch
			waitSnapshot(t, j, next)
		}
	}
	checkpointRounds := func() int {
		f, err := os.Open(filepath.Join(dir, "jobs", spec.ID, modelFile))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		m, err := core.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		return m.BatchRounds()
	}

	reg := mustOpen(t, cfg)
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	fitRounds(job, saveEvery+2) // checkpoint at round 4, two rounds past it
	reg.CrashAll()

	reg = mustOpen(t, cfg)
	job, _ = reg.Get(spec.ID)
	fitRounds(job, saveEvery-1) // fewer than SaveEvery rounds since the reopen
	rounds := int(job.rounds.Load())
	reg.CrashAll()

	if replay := rounds - checkpointRounds(); replay >= saveEvery {
		t.Fatalf("a second recovery would replay %d rounds (of %d), want fewer than SaveEvery=%d",
			replay, rounds, saveEvery)
	}
	reg = mustOpen(t, cfg)
	defer reg.Close()
	job, _ = reg.Get(spec.ID)
	if got := int(job.rounds.Load()); got != rounds {
		t.Fatalf("recovered %d rounds, want %d", got, rounds)
	}
}

// TestStatsSplitsFullPublications: /statsz reports the full publications
// beside all of them; a backlogged round publishes incrementally.
func TestStatsSplitsFullPublications(t *testing.T) {
	reg := mustOpen(t, Config{BatchWait: time.Hour})
	defer reg.Close()
	ds := testStream(t, 0.08, 4)
	job, err := reg.Create(JobSpec{
		ID: "split", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 4, BatchSize: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	// One batch with nothing behind it publishes full; then three batches at
	// once: two backlogged (incremental) rounds and a caught-up full one.
	if err := job.Ingest(all[:16]); err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, job, 16)
	if err := job.Ingest(all[16:64]); err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, job, 64)
	// The histograms record a publication just after its snapshot is
	// stored, so wait for the last samples too.
	st := job.Stats()
	for deadline := time.Now().Add(5 * time.Second); (st.Publish.Count < 4 || st.PublishFull.Count < 2) &&
		time.Now().Before(deadline); st = job.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Publish.Count != 4 || st.PublishFull.Count != 2 {
		t.Fatalf("publications: %d total, %d full; want 4 and 2", st.Publish.Count, st.PublishFull.Count)
	}
	if st.PublishFull.SumNs > st.Publish.SumNs || st.PublishFull.MaxNs > st.Publish.MaxNs {
		t.Fatalf("full publications exceed all publications: %+v vs %+v", st.PublishFull, st.Publish)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"publish_full":{"count":2,`) {
		t.Fatalf("statsz JSON lacks publish_full: %s", raw)
	}
}
