package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cpa/internal/core"
	"cpa/internal/loadgen"
	"cpa/internal/serve"
)

// testdata/tuned is a job directory written by a daemon that still ran the
// retired per-job auto-tuner (serve.Config.AutoTune, window 1, Parallelism
// capped at 4). Its spec asks for Parallelism 1 and BatchSize 16; the tuner
// walked both knobs, journaling {"op":"tune","par":P,"bs":B} lines between
// fit rounds, and model.gob was checkpointed at round 6 of 8 with
// Parallelism 4 and BatchSize 32. snapshot.json is the snapshot that daemon
// served when it was killed. Every path that reads such a directory today
// must reach that snapshot bit for bit.
const tunedFixture = "testdata/tuned"

// loadTunedFixture copies the fixture's data directory (recovery appends
// to its journal) and returns the copy's root with the job's spec and the
// recorded snapshot.
func loadTunedFixture(t *testing.T) (dir string, spec serve.JobSpec, want *serve.Snapshot) {
	t.Helper()
	dir = t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(tunedFixture)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", "tuned", "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	want = new(serve.Snapshot)
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatal(err)
	}
	return dir, spec, want
}

// sameSnapshotBits compares two snapshots through their JSON encoding with
// the publication time cleared. Go encodes each float64 in the shortest
// form that round-trips, so equal bytes mean equal bits.
func sameSnapshotBits(t *testing.T, what string, want, got *serve.Snapshot) {
	t.Helper()
	enc := func(s *serve.Snapshot) []byte {
		c := *s
		c.CreatedAt = time.Time{}
		raw, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if got.Round != want.Round || got.Answers != want.Answers {
		t.Fatalf("%s: round %d, %d answers; want round %d, %d answers", what, got.Round, got.Answers, want.Round, want.Answers)
	}
	if !bytes.Equal(enc(want), enc(got)) {
		t.Fatalf("%s: consensus differs from the recorded snapshot", what)
	}
}

// follow applies a journal through a follower Applier, seeded from
// checkpoint when it is non-empty.
func follow(t *testing.T, spec serve.JobSpec, journal string, checkpoint []byte) *serve.Snapshot {
	t.Helper()
	ap, err := serve.NewApplier(spec)
	if len(checkpoint) > 0 {
		ap, err = serve.NewApplierFrom(spec, bytes.NewReader(checkpoint))
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.ReadJournal(journal, ap.Apply); err != nil {
		t.Fatal(err)
	}
	return ap.Snapshot()
}

// TestTunedJobFixtureReplays pins downgrade tolerance for directories the
// auto-tuner wrote: recovery, offline replay, a follower and a truncation
// all ignore the tune lines and reach the recorded snapshot.
func TestTunedJobFixtureReplays(t *testing.T) {
	dir, spec, want := loadTunedFixture(t)
	jobDir := filepath.Join(dir, "jobs", "tuned")
	journal := filepath.Join(jobDir, "journal.jsonl")

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	tunes := bytes.Count(raw, []byte(`"op":"tune"`))
	if tunes == 0 {
		t.Fatal("fixture journal holds no tune lines")
	}
	ck, err := os.ReadFile(filepath.Join(jobDir, "model.gob"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config(); got.Parallelism == spec.Model.Parallelism || got.BatchSize == spec.Model.BatchSize {
		t.Fatalf("fixture checkpoint runs at Parallelism %d, BatchSize %d: not tuned away from the spec's %d, %d",
			got.Parallelism, got.BatchSize, spec.Model.Parallelism, spec.Model.BatchSize)
	}

	t.Run("replay", func(t *testing.T) {
		entries := 0
		if err := serve.ReadJournal(journal, func(serve.JournalEntry) error {
			entries++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(raw, []byte("\n")); entries != lines-tunes {
			t.Fatalf("ReadJournal delivered %d entries from %d lines with %d tune lines", entries, lines, tunes)
		}
		if err := loadgen.CheckReplay(journal, spec, want); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("follow", func(t *testing.T) {
		sameSnapshotBits(t, "cold follower", want, follow(t, spec, journal, nil))
		sameSnapshotBits(t, "checkpoint-seeded follower", want, follow(t, spec, journal, ck))
	})

	t.Run("recover", func(t *testing.T) {
		dir, _, _ := loadTunedFixture(t)
		reg, err := serve.Open(serve.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		job, ok := reg.Get("tuned")
		if !ok {
			t.Fatal("tuned job not recovered")
		}
		sameSnapshotBits(t, "recovered job", want, job.Snapshot())
	})

	t.Run("truncate", func(t *testing.T) {
		// A clean close checkpoints the recovered model and drops the
		// journal prefix it covers, tune lines included.
		dir, _, _ := loadTunedFixture(t)
		cfg := serve.Config{Dir: dir, TruncateJournal: true, TruncateMin: 1}
		reg, err := serve.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		jobDir := filepath.Join(dir, "jobs", "tuned")
		journal := filepath.Join(jobDir, "journal.jsonl")
		st, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() >= int64(len(raw)) {
			t.Fatalf("journal not truncated: %d bytes, fixture %d", st.Size(), len(raw))
		}
		base, err := os.ReadFile(filepath.Join(jobDir, serve.BaseCheckpointFileName))
		if err != nil {
			t.Fatalf("truncation left no base checkpoint: %v", err)
		}
		if err := loadgen.CheckReplay(journal, spec, want); err != nil {
			t.Fatal(err)
		}
		sameSnapshotBits(t, "follower seeded from base", want, follow(t, spec, journal, base))

		reg, err = serve.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		job, ok := reg.Get("tuned")
		if !ok {
			t.Fatal("truncated job not recovered")
		}
		sameSnapshotBits(t, "job recovered after truncation", want, job.Snapshot())
	})
}
