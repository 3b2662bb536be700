package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
)

// poolCrowd draws a deterministic crowd for one job: n answers, each a
// worker's one to three labels on an item.
func poolCrowd(seed int64, items, workers, labels, n int) []answers.Answer {
	rng := rand.New(rand.NewSource(seed))
	out := make([]answers.Answer, n)
	for k := range out {
		var set labelset.Set
		for c := 1 + rng.Intn(3); c > 0; c-- {
			set.Add(rng.Intn(labels))
		}
		out[k] = answers.Answer{Item: rng.Intn(items), Worker: rng.Intn(workers), Labels: set}
	}
	return out
}

// snapshotHash hashes a snapshot's published content (all but its
// creation time).
func snapshotHash(t testing.TB, s *Snapshot) string {
	t.Helper()
	c := *s
	c.CreatedAt = time.Time{}
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// TestPooledJobsIsolated runs three jobs of one shape, with different
// crowds and seeds, through one process's pools: the finalize clones,
// training scratch and transposed ψ cubes jobs of one shape borrow from
// each other. Each job's sequence of published views (full and
// incremental) must be the same when the three run concurrently as when
// each runs alone. Then one job is purged while the others keep
// publishing, and its model must be collected: no pooled buffer pins it.
func TestPooledJobsIsolated(t *testing.T) {
	const items, workers, labels, batch = 48, 12, 6, 16
	// Chunks of two batches land in one Ingest, so the fitter's first round
	// sees a backlog and publishes incrementally, the second in full.
	chunks := []int{1, 2, 1, 2, 2, 1}
	total := 0
	for _, c := range chunks {
		total += c * batch
	}
	specs := make([]JobSpec, 3)
	crowds := make([][]answers.Answer, 3)
	for k := range specs {
		specs[k] = JobSpec{ID: fmt.Sprintf("pool%d", k), Items: items, Workers: workers, Labels: labels,
			Model: core.Config{Seed: int64(k + 1), BatchSize: batch}}
		crowds[k] = poolCrowd(int64(100+k), items, workers, labels, total+4*batch)
	}

	// Each fit round records the view the previous round published.
	var mu sync.Mutex
	var seqs map[string][]string
	fitRoundHook = func(j *Job) {
		h := snapshotHash(t, j.Snapshot())
		mu.Lock()
		seqs[j.ID()] = append(seqs[j.ID()], h)
		mu.Unlock()
	}
	t.Cleanup(func() { fitRoundHook = nil })

	stream := func(j *Job, crowd []answers.Answer) {
		off := 0
		for _, c := range chunks {
			if err := j.Ingest(crowd[off : off+c*batch]); err != nil {
				t.Error(err)
				return
			}
			off += c * batch
			waitFitted(t, j, int64(off))
		}
		final := snapshotHash(t, waitSnapshot(t, j, off))
		mu.Lock()
		seqs[j.ID()] = append(seqs[j.ID()], final)
		mu.Unlock()
	}

	seqs = map[string][]string{}
	for k, spec := range specs {
		reg := mustOpen(t, Config{BatchWait: time.Hour})
		j, err := reg.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		stream(j, crowds[k])
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	solo := seqs

	seqs = map[string][]string{}
	reg := mustOpen(t, Config{BatchWait: time.Hour})
	t.Cleanup(func() { reg.Close() })
	jobs := make([]*Job, len(specs))
	for k, spec := range specs {
		var err error
		if jobs[k], err = reg.Create(spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for k, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream(j, crowds[k])
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, spec := range specs {
		id := spec.ID
		if want := total/batch + 1; len(solo[id]) != want {
			t.Fatalf("%s: solo run recorded %d views, want %d", id, len(solo[id]), want)
		}
		if fmt.Sprint(seqs[id]) != fmt.Sprint(solo[id]) {
			t.Fatalf("%s: views published beside other jobs differ from its solo run:\n%v\n%v", id, seqs[id], solo[id])
		}
	}

	// Purge pool1 while pool0 and pool2 keep fitting and publishing.
	collected := make(chan struct{})
	runtime.SetFinalizer(jobs[1].model, func(*core.Model) { close(collected) })
	jobs[1] = nil
	var more sync.WaitGroup
	for _, k := range []int{0, 2} {
		more.Add(1)
		go func(j *Job, extra []answers.Answer) {
			defer more.Done()
			for r := 0; r < 4; r++ {
				if err := j.Ingest(extra[r*batch : (r+1)*batch]); err != nil {
					t.Error(err)
					return
				}
				waitFitted(t, j, int64(total+(r+1)*batch))
			}
		}(jobs[k], crowds[k][total:])
	}
	if err := reg.Purge(specs[1].ID); err != nil {
		t.Fatal(err)
	}
	for gc := 0; ; gc++ {
		runtime.GC()
		select {
		case <-collected:
			more.Wait()
			return
		case <-time.After(10 * time.Millisecond):
		}
		if gc == 200 {
			t.Fatal("the purged job's model was never collected")
		}
	}
}
