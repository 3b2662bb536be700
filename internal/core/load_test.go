package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"runtime"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/labelset"
)

// TestLoadRefusesOversizedHeader corrupts the header of a small checkpoint
// to claim far more items, workers or labels than its saved slices hold.
// Load must refuse each with ErrConfig before NewModel allocates the header's
// Items×T, Workers×M or T·M×C state: under 1 MB allocated in all, where the
// same header used to allocate 5–10 MB before any slice length was compared
// (and a header claiming 2³⁰ items, hundreds of GB).
func TestLoadRefusesOversizedHeader(t *testing.T) {
	m, err := NewModel(Config{Seed: 3, BatchSize: 8}, 12, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	var batch []answers.Answer
	for k := range 24 {
		batch = append(batch, answers.Answer{Item: k % 12, Worker: k % 6, Labels: labelset.Of(k % 4)})
	}
	if err := m.PartialFit(batch); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*modelState)
	}{
		{"items", func(s *modelState) { s.Items = 1 << 16 }},
		{"workers", func(s *modelState) { s.Workers = 1 << 16 }},
		{"labels", func(s *modelState) { s.Labels = 1 << 12 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := st
			tc.mutate(&cp)
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(&cp); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(&b)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Load = %v, want ErrConfig", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("Load allocated %d bytes before refusing the header, want < 1 MB", got)
			}
		})
	}
}

// FuzzLoad feeds Load arbitrary bytes: it must return an error or a model
// that saves, and never panic. Recovery loads checkpoints outside the
// fitter's panic guard, so a panic here takes the whole daemon down. The
// seeds are checkpoints of TestModelGobGolden's image and topic streams,
// taken mid-stream, and the tuned serving fixture.
func FuzzLoad(f *testing.F) {
	for _, profile := range []string{"image", "topic"} {
		f.Add(goldenMidCheckpoint(f, profile))
	}
	tuned, err := os.ReadFile("../serve/testdata/tuned/jobs/tuned/model.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tuned)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Save(new(bytes.Buffer)); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
	})
}

// goldenMidCheckpoint streams the first half of TestModelGobGolden's crowd
// for profile, in its configuration and publication schedule, and returns
// the saved model.
func goldenMidCheckpoint(tb testing.TB, profile string) []byte {
	tb.Helper()
	ds := loadShuffled(tb, profile, 0.08, 23)
	cfg := Config{Seed: 23, BatchSize: 48, AnswerWindow: 128}
	m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < ds.NumItems; i += 7 {
		if truth, ok := ds.Truth(i); ok {
			m.revealedTruth[i] = truth.Slice()
		}
	}
	batches := ds.Batches(cfg.BatchSize)
	pub := NewPublisher(m)
	for k, b := range batches[:len(batches)/2] {
		if err := m.PartialFit(b.Answers); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := pub.Publish(k%3 == 0); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
