package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
	"cpa/internal/mat"
)

// TestFitterPanicIsolatesTenant panics one job's fitter, inside a sharded
// loop as a model bug would, and requires that only that job fails: its
// stats report the panic, its ingests are refused as failed, and the other
// jobs keep ingesting and publishing.
func TestFitterPanicIsolatesTenant(t *testing.T) {
	fitRoundHook = func(j *Job) {
		if j.ID() == "bad" {
			mat.ParallelFor(4, 4, func(s, _, _ int) {
				if s == 2 {
					panic("injected fault")
				}
			})
		}
	}
	t.Cleanup(func() { fitRoundHook = nil })
	reg := mustOpen(t, Config{BatchWait: time.Millisecond})
	t.Cleanup(func() { reg.Close() })

	batch := func(base int) []answers.Answer {
		b := make([]answers.Answer, 16)
		for i := range b {
			b[i] = answers.Answer{Item: (base + i) % 40, Worker: (base + i) % 8, Labels: labelset.Of((base + i) % 4)}
		}
		return b
	}
	jobs := map[string]*Job{}
	for _, id := range []string{"good1", "bad", "good2"} {
		j, err := reg.Create(JobSpec{ID: id, Items: 40, Workers: 8, Labels: 4, Model: core.Config{Seed: 1, BatchSize: 16}})
		if err != nil {
			t.Fatal(err)
		}
		jobs[id] = j
		if err := j.Ingest(batch(0)); err != nil {
			t.Fatal(err)
		}
	}

	bad := jobs["bad"]
	deadline := time.Now().Add(30 * time.Second)
	for bad.Stats().Error == "" {
		if time.Now().After(deadline) {
			t.Fatal("the panicking job never reported a failure")
		}
		time.Sleep(time.Millisecond)
	}
	if msg := bad.Stats().Error; !strings.Contains(msg, "injected fault") {
		t.Fatalf("failure %q does not carry the panic", msg)
	}
	if err := bad.Ingest(batch(16)); !errorsIs(err, ErrClosed) || !strings.Contains(err.Error(), "job failed") {
		t.Fatalf("ingest into the failed job: %v, want a job-failed refusal", err)
	}

	for _, id := range []string{"good1", "good2"} {
		j := jobs[id]
		for r := 1; r <= 3; r++ {
			if err := j.Ingest(batch(16 * r)); err != nil {
				t.Fatalf("%s: ingest after the other job's panic: %v", id, err)
			}
			waitFitted(t, j, int64(16*(r+1)))
		}
		for j.Snapshot().Round < 4 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: published round %d, want 4", id, j.Snapshot().Round)
			}
			time.Sleep(time.Millisecond)
		}
		if st := j.Stats(); st.Error != "" {
			t.Fatalf("%s failed too: %s", id, st.Error)
		}
	}
}

// failOnRead is a request body that fails the test if anything reads it.
type failOnRead struct{ t *testing.T }

func (f failOnRead) Read([]byte) (int, error) {
	f.t.Error("the body of a POST to a full job was read")
	return 0, http.ErrBodyReadAfterClose
}

// TestHandlerRefusesFullQueueBeforeBody pins the early 429: a POST to a job
// whose queue is already at its limit is refused without its body being
// read, while a POST to a job with room is still accepted.
func TestHandlerRefusesFullQueueBeforeBody(t *testing.T) {
	reg := mustOpen(t, Config{QueueLimit: 8, BatchWait: time.Hour})
	t.Cleanup(func() { reg.Close() })
	srv := NewServer(reg)
	for _, id := range []string{"full", "room"} {
		if _, err := reg.Create(JobSpec{
			ID: id, Items: 64, Workers: 8, Labels: 4,
			Model: core.Config{Seed: 1, BatchSize: 1 << 20},
		}); err != nil {
			t.Fatal(err)
		}
	}
	full, _ := reg.Get("full")
	fill := make([]answers.Answer, 8)
	for i := range fill {
		fill[i] = answers.Answer{Item: i, Worker: i, Labels: labelset.Of(i % 4)}
	}
	if err := full.Ingest(fill); err != nil {
		t.Fatal(err)
	}

	for _, ct := range []string{"application/x-ndjson", "application/json"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs/full/answers", failOnRead{t})
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s POST to a full job: status %d, want 429", ct, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "queue") {
			t.Errorf("429 body %q does not mention the queue", rec.Body.String())
		}
	}

	line, _ := answers.MarshalAnswerJSON(answers.Answer{Item: 1, Worker: 1, Labels: labelset.Of(1)})
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/room/answers", bytes.NewReader(append(line, '\n')))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST to a job with room: status %d (%s), want 202", rec.Code, rec.Body.String())
	}
}
