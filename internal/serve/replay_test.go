package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cpa/internal/core"
)

// replayFixtures builds the real journals FuzzJournalReplay starts from,
// all under one effective spec:
//   - plain: an untruncated journal with incremental and full rounds;
//   - ahead: a truncated journal whose base.gob is ahead of its header. One
//     80-answer ingest queues at once, rounds of 32 follow, and round 2's
//     checkpoint truncates: the cut stops at the first uncovered answer,
//     before both covered fit markers, so the header counts 64 answers and
//     0 fits while base.gob holds 64 answers and 2 fits.
func replayFixtures(t testing.TB) (spec JobSpec, plain, ahead, aheadBase []byte) {
	t.Helper()
	ds := testStream(t, 0.04, 41)
	all := ds.Answers()[:96]
	want := JobSpec{
		ID: "fz", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 41, BatchSize: 32},
	}
	run := func(cfg Config, chunk int) (*Job, string) {
		reg := mustOpen(t, cfg)
		job, err := reg.Create(want)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, job, all[:chunk*(len(all)/chunk)], chunk)
		waitSnapshot(t, job, int(job.fitted.Load()))
		reg.CrashAll()
		return job, filepath.Join(cfg.Dir, "jobs", want.ID)
	}

	job, dir := run(Config{Dir: t.TempDir(), SaveEvery: 1 << 30, BatchWait: time.Millisecond}, 24)
	spec = job.Spec()
	var err error
	if plain, err = os.ReadFile(filepath.Join(dir, journalFile)); err != nil {
		t.Fatal(err)
	}

	_, dir = run(Config{Dir: t.TempDir(), SaveEvery: 2, BatchWait: time.Millisecond,
		TruncateJournal: true, TruncateMin: 1}, 80)
	if ahead, err = os.ReadFile(filepath.Join(dir, journalFile)); err != nil {
		t.Fatal(err)
	}
	if aheadBase, err = os.ReadFile(filepath.Join(dir, baseFile)); err != nil {
		t.Fatal(err)
	}
	hdr, err := DecodeJournalLine(ahead[:bytes.IndexByte(ahead, '\n')])
	if err != nil || hdr.Base == nil {
		t.Fatalf("truncated fixture has no base header (err %v)", err)
	}
	m, err := core.Load(bytes.NewReader(aheadBase))
	if err != nil {
		t.Fatal(err)
	}
	if int64(m.BatchRounds()) <= hdr.Base.Fits {
		t.Fatalf("fixture base.gob (%d rounds) is not ahead of its header (%+v)", m.BatchRounds(), *hdr.Base)
	}
	return spec, plain, ahead, aheadBase
}

// applyShipped feeds a journal through an applier the way a cluster
// follower applies a shipped stream: complete lines only, blank lines
// skipped, and a malformed line held back as a possible torn tail unless
// another line follows it.
func applyShipped(ap *Applier, data []byte) error {
	for {
		idx := bytes.IndexByte(data, '\n')
		if idx < 0 {
			return nil
		}
		if line := data[:idx]; len(line) > 0 {
			e, err := DecodeJournalLine(line)
			if err != nil && bytes.IndexByte(data[idx+1:], '\n') < 0 {
				return nil
			}
			if err == nil {
				err = ap.Apply(e)
			}
			if err != nil {
				return err
			}
		}
		data = data[idx+1:]
	}
}

// hasLongNumber reports whether data holds a run of more than six digits.
func hasLongNumber(data []byte) bool {
	run := 0
	for _, b := range data {
		if b >= '0' && b <= '9' {
			if run++; run > 6 {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// replayOutcome is the state a replay path reached: the model's checkpoint
// bytes and the (ingested, fitted, rounds) counters.
type replayOutcome struct {
	model    []byte
	counters [3]int64
}

// FuzzJournalReplay checks that recovery and a follower read every journal
// the same way: the input is fed through registry recovery of a staged
// directory and, line by line, through an Applier. Both must fail, or both
// must reach identical model bytes and identical counters. The second
// argument picks the staged checkpoint: none, or the base.gob of a journal
// truncated behind it.
func FuzzJournalReplay(f *testing.F) {
	spec, plain, ahead, aheadBase := replayFixtures(f)
	checkpoints := [][]byte{nil, aheadBase}
	specRaw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain, uint8(0))
	f.Add(plain[:len(plain)-7], uint8(0)) // torn tail
	f.Add(ahead, uint8(1))

	f.Fuzz(func(t *testing.T, journal []byte, pick uint8) {
		if hasLongNumber(journal) {
			// A label set is a bitset sized by its largest label, decoded
			// identically on both paths: a label in the billions only
			// measures the allocator. Every real coordinate here fits in
			// six digits.
			t.Skip()
		}
		ck := checkpoints[int(pick)%len(checkpoints)]

		recovered, rerr := func() (replayOutcome, error) {
			dir := t.TempDir()
			jobDir := filepath.Join(dir, "jobs", spec.ID)
			if err := os.MkdirAll(jobDir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{specFile: specRaw, journalFile: journal}
			if ck != nil {
				files[baseFile] = ck
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(jobDir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, err := recoverJob(jobDir, Config{Dir: dir}.withDefaults())
			if err != nil {
				return replayOutcome{}, err
			}
			defer j.journal.Close()
			var buf bytes.Buffer
			if err := j.model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return replayOutcome{buf.Bytes(), [3]int64{j.ingested.Load(), j.fitted.Load(), j.rounds.Load()}}, nil
		}()

		followed, aerr := func() (replayOutcome, error) {
			ap, err := NewApplier(spec)
			if ck != nil {
				ap, err = NewApplierFrom(spec, bytes.NewReader(ck))
			}
			if err == nil {
				err = applyShipped(ap, journal)
			}
			if err == nil {
				err = ap.rp.finish()
			}
			if err != nil {
				return replayOutcome{}, err
			}
			var buf bytes.Buffer
			if err := ap.rp.model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			ingested, fitted, rounds := ap.Counters()
			return replayOutcome{buf.Bytes(), [3]int64{ingested, fitted, rounds}}, nil
		}()

		if (rerr == nil) != (aerr == nil) {
			t.Fatalf("recovery and follower disagree: recovery err=%v, follower err=%v", rerr, aerr)
		}
		if rerr != nil {
			return
		}
		if recovered.counters != followed.counters {
			t.Fatalf("counters (ingested, fitted, rounds): recovery %v, follower %v", recovered.counters, followed.counters)
		}
		if !bytes.Equal(recovered.model, followed.model) {
			t.Fatal("recovery and follower reached different model state")
		}
	})
}
