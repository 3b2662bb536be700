package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

import "cpa/internal/core"

// truncCfg is a registry config aggressive enough that a modest stream
// truncates several times: checkpoint every 2 rounds, drop any prefix over
// 2KiB.
func truncCfg(dir string) Config {
	return Config{Dir: dir, SaveEvery: 2, BatchWait: 5 * time.Millisecond,
		TruncateJournal: true, TruncateMin: 2 << 10}
}

// TestTruncationBoundsJournalAndRecoversExactly is the retention half of
// the crash-recovery contract: with truncation on, the on-disk journal file
// stays a fraction of the global journal length, the dropped prefix is
// anchored by base.gob, and a kill -9 after several truncations still
// recovers the bit-identical consensus and keeps serving.
func TestTruncationBoundsJournalAndRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	ds := shuffledStream(t, 0.08, 7)
	spec := JobSpec{
		ID: "trunc", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 7, BatchSize: 64, Parallelism: 2},
	}
	reg := mustOpen(t, truncCfg(dir))
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	holdBack := 100
	ingestAll(t, job, all[:len(all)-holdBack], 64)
	waitSnapshot(t, job, len(all)-holdBack)
	stats := job.Stats() // the journal handle closes with the crash below
	reg.CrashAll()
	before := job.Snapshot()

	if stats.JournalBytes == 0 {
		t.Fatal("no journal bytes recorded")
	}
	if stats.JournalFileBytes >= stats.JournalBytes {
		t.Fatalf("journal never truncated: file %d bytes of %d global", stats.JournalFileBytes, stats.JournalBytes)
	}
	if stats.JournalFileBytes > stats.JournalBytes/2 {
		t.Fatalf("journal file not bounded: %d of %d global bytes", stats.JournalFileBytes, stats.JournalBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "trunc", baseFile)); err != nil {
		t.Fatalf("truncated journal has no base checkpoint anchor: %v", err)
	}

	reg2 := mustOpen(t, truncCfg(dir))
	defer reg2.Close()
	job2, ok := reg2.Get("trunc")
	if !ok {
		t.Fatal("job not recovered")
	}
	sameConsensus(t, before, job2.Snapshot())
	// Recovery journals a restart re-anchor, so the global coordinate may
	// advance by that one record — but it must never regress below the
	// pre-crash durable position (a regression means the truncated prefix
	// was dropped from the coordinate space).
	if got := job2.Stats(); got.JournalBytes < stats.JournalBytes {
		t.Fatalf("global journal coordinate regressed across recovery: %d, want >= %d", got.JournalBytes, stats.JournalBytes)
	}

	// The recovered job keeps truncating as it serves the held-back tail.
	ingestAll(t, job2, all[len(all)-holdBack:], 64)
	after := waitSnapshot(t, job2, len(all))
	if after.Round <= before.Round {
		t.Fatalf("recovered job did not resume fitting: round %d (pre-crash %d)", after.Round, before.Round)
	}
}

// TestTruncationKillWindowRecovers pins the crash protocol's vulnerable
// window: base.gob has been refreshed but the journal rewrite never
// committed (stale journal.jsonl.tmp left behind, untruncated journal on
// disk). Recovery must ignore the newer base.gob in favor of model.gob,
// discard the temp file, and reproduce the pre-crash consensus.
func TestTruncationKillWindowRecovers(t *testing.T) {
	dir := t.TempDir()
	ds := shuffledStream(t, 0.08, 13)
	spec := JobSpec{
		ID: "window", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 13, BatchSize: 64, Parallelism: 2},
	}
	reg := mustOpen(t, truncCfg(dir))
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, job, ds.Answers(), 64)
	waitSnapshot(t, job, len(ds.Answers()))
	reg.CrashAll()
	before := job.Snapshot()

	// Re-create the mid-truncation disk state on top of the crashed job:
	// base.gob freshly copied from the final checkpoint (the copy step
	// completed) and the journal rewrite torn — its temp file written but
	// never renamed over journal.jsonl.
	jobDir := filepath.Join(dir, "jobs", "window")
	if _, err := os.Stat(filepath.Join(jobDir, modelFile)); err != nil {
		t.Fatalf("no final checkpoint to anchor the simulated window: %v", err)
	}
	if err := copyFileAtomic(filepath.Join(jobDir, modelFile), filepath.Join(jobDir, baseFile), false); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, journalFile+".tmp"), []byte("torn rewrite\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := mustOpen(t, truncCfg(dir))
	defer reg2.Close()
	job2, ok := reg2.Get("window")
	if !ok {
		t.Fatal("job not recovered from the truncation kill window")
	}
	sameConsensus(t, before, job2.Snapshot())
	if _, err := os.Stat(filepath.Join(jobDir, journalFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale journal temp file survived recovery: %v", err)
	}
}

// TestTruncationBelowMinLeavesAnchor pins the order of a truncation: the
// journal decides the cut first and anchors second. A full-published
// checkpoint whose droppable prefix is below TruncateMin, on a journal file
// at or above it, must not touch base.gob — overwriting it there would leave
// an anchor newer than the journal's base header.
func TestTruncationBelowMinLeavesAnchor(t *testing.T) {
	ds := testStream(t, 0.04, 31)
	batch := ds.Answers()[:96]
	spec := JobSpec{
		ID: "anchor", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 31, BatchSize: 32},
	}
	// One 96-answer ingest queues at once, so the fitter runs three rounds
	// of 32; with SaveEvery 2 the only checkpoint is round 2's, covering the
	// first 64 answers while all 96 sit in the journal before its marker.
	run := func(cfg Config, prep func(jobDir string)) (jobDir string) {
		reg := mustOpen(t, cfg)
		job, err := reg.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobDir = filepath.Join(cfg.Dir, "jobs", spec.ID)
		prep(jobDir)
		if err := job.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		waitSnapshot(t, job, len(batch))
		reg.CrashAll() // no closing checkpoint: round 2's is the last
		return jobDir
	}

	// Measure the journal with truncation off: the droppable prefix at
	// round 2 is the first 64 answer lines, the file then holds 96 answers
	// and two fit markers.
	probe := run(Config{Dir: t.TempDir(), SaveEvery: 2, BatchWait: time.Millisecond}, func(string) {})
	raw, err := os.ReadFile(filepath.Join(probe, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	var droppable, fileLen int64
	for i, l := range lines[:98] {
		if i < 64 {
			droppable += int64(len(l))
		}
		fileLen += int64(len(l))
	}
	if !bytes.HasPrefix(lines[96], []byte(`{"op":"fit","n":32`)) {
		t.Fatalf("unexpected round layout: line 96 is %q", lines[96])
	}

	anchor := []byte("previous anchor")
	cfg := Config{Dir: t.TempDir(), SaveEvery: 2, BatchWait: time.Millisecond,
		TruncateJournal: true, TruncateMin: (droppable + fileLen) / 2}
	jobDir := run(cfg, func(jobDir string) {
		if err := os.WriteFile(filepath.Join(jobDir, baseFile), anchor, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := os.Stat(filepath.Join(jobDir, modelFile)); err != nil {
		t.Fatalf("round 2 wrote no checkpoint: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(jobDir, baseFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, anchor) {
		t.Fatalf("a truncation that cut nothing rewrote base.gob (%d bytes)", len(got))
	}
	if j, err := os.ReadFile(filepath.Join(jobDir, journalFile)); err != nil || bytes.HasPrefix(j, []byte(`{"op":"base"`)) {
		t.Fatalf("journal truncated below TruncateMin (err %v)", err)
	}
}

// TestCleanCloseTruncatesJournal pins the graceful-restart retention fix: a
// clean Close checkpoints the drained model and then truncates the journal
// it covers, so a graceful restart does not carry one extra journal window.
// The truncated job must still reopen to the identical consensus and keep
// serving.
func TestCleanCloseTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	ds := shuffledStream(t, 0.08, 9)
	spec := JobSpec{
		ID: "clean", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 9, BatchSize: 64, Parallelism: 2},
	}
	// SaveEvery is huge: no mid-stream checkpoint fires, so any truncation
	// observed must come from the Close path alone.
	cfg := Config{Dir: dir, SaveEvery: 1 << 20, BatchWait: time.Millisecond,
		TruncateJournal: true, TruncateMin: 1 << 10}
	reg := mustOpen(t, cfg)
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	ingestAll(t, job, all, 64)
	waitSnapshot(t, job, len(all))
	before := job.Snapshot()
	preClose := job.Stats()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	jobDir := filepath.Join(dir, "jobs", "clean")
	st, err := os.Stat(filepath.Join(jobDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= preClose.JournalFileBytes {
		t.Fatalf("clean close did not truncate: %d bytes on disk, %d before close",
			st.Size(), preClose.JournalFileBytes)
	}
	if _, err := os.Stat(filepath.Join(jobDir, baseFile)); err != nil {
		t.Fatalf("clean-close truncation left no base anchor: %v", err)
	}

	reg2 := mustOpen(t, cfg)
	defer reg2.Close()
	job2, ok := reg2.Get("clean")
	if !ok {
		t.Fatal("job not recovered after clean close")
	}
	sameConsensus(t, before, job2.Snapshot())
	if got := job2.Stats(); got.JournalBytes < preClose.JournalBytes {
		t.Fatalf("global journal coordinate regressed: %d, want >= %d", got.JournalBytes, preClose.JournalBytes)
	}
}
