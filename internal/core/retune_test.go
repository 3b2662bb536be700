package core

import (
	"errors"
	"math/rand"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/datasets"
	"cpa/internal/labelset"
)

// streamPredict feeds the dataset through PartialFit in batches of chop
// answers, invoking retune (if non-nil) before the given round, then
// finalizes and predicts. This is the serve-layer shape of training: the
// caller chops the stream, the model never re-chops. It returns the
// finalized model with its predictions.
func streamPredict(t testing.TB, ds *answers.Dataset, cfg Config, chop int, retuneRound int, retune func(*Model)) ([]labelset.Set, *Model) {
	t.Helper()
	m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	for round, b := range ds.Batches(chop) {
		if retune != nil && round == retuneRound {
			retune(m)
		}
		if err := m.PartialFit(b.Answers); err != nil {
			t.Fatal(err)
		}
	}
	m.FinalizeOnline()
	pred, err := m.Predict()
	if err != nil {
		t.Fatal(err)
	}
	return pred, m
}

// TestRetuneParallelismReplayInvisible pins the auto-tuner's core safety
// argument (DESIGN.md §13): changing Parallelism between rounds is invisible
// to the learned posterior. A run that retunes P mid-stream must be
// bit-identical — predictions, κ, ϕ, λ, ζ, ŷ and reliabilities — to
// uninterrupted runs at either endpoint, so journal replay at any fixed
// Parallelism reproduces a tuned job's served history exactly. The image
// stream has more items than one reduction block.
func TestRetuneParallelismReplayInvisible(t *testing.T) {
	img, _, err := datasets.Load("image", 0.15, 17)
	if err != nil {
		t.Fatal(err)
	}
	img = img.Shuffled(rand.New(rand.NewSource(17)))
	for _, c := range []struct {
		name string
		ds   *answers.Dataset
		chop int
	}{{"ties", tieDataset(t), 8}, {"image", img, 64}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Seed: 17, Parallelism: 1, BatchSize: c.chop}
			same := func(what string, a, b []labelset.Set, ma, mb *Model) {
				t.Helper()
				samePredictions(t, what, a, b)
				sameModelBits(t, what, ma, mb)
			}

			ref, refM := streamPredict(t, c.ds, cfg, c.chop, -1, nil)
			tuned, tunedM := streamPredict(t, c.ds, cfg, c.chop, 2, func(m *Model) {
				if err := m.Retune(4, 0); err != nil {
					t.Fatal(err)
				}
				if got := m.Config().Parallelism; got != 4 {
					t.Fatalf("Parallelism after Retune = %d, want 4", got)
				}
			})
			same("mid-stream P retune vs fixed P=1", ref, tuned, refM, tunedM)

			cfg4 := cfg
			cfg4.Parallelism = 4
			fixed4, fixed4M := streamPredict(t, c.ds, cfg4, c.chop, -1, nil)
			same("mid-stream P retune vs fixed P=4", fixed4, tuned, fixed4M, tunedM)

			// Retuning down mid-stream is equally invisible.
			down, downM := streamPredict(t, c.ds, cfg4, c.chop, 1, func(m *Model) {
				if err := m.Retune(1, 0); err != nil {
					t.Fatal(err)
				}
			})
			same("downward P retune", ref, down, refM, downM)
		})
	}
}

// TestRetuneBatchSizeOnlyChopsFutureBatches pins the other half of the
// safety argument: Config.BatchSize steers how the *caller* chops future
// batches, while PartialFit itself learns from whatever boundaries it is
// handed (they are journaled per round and replayed verbatim). Two models
// with different configured BatchSize fed identical boundaries must agree
// exactly.
func TestRetuneBatchSizeOnlyChopsFutureBatches(t *testing.T) {
	ds := tieDataset(t)
	small := Config{Seed: 17, Parallelism: 2, BatchSize: 4}
	large := Config{Seed: 17, Parallelism: 2, BatchSize: 32}

	a, _ := streamPredict(t, ds, small, 8, -1, nil)
	b, _ := streamPredict(t, ds, large, 8, -1, nil)
	samePredictions(t, "BatchSize config vs fed boundaries", a, b)

	// A mid-stream batch retune changes only what Config reports to the
	// caller; fed the same boundaries the posterior is untouched.
	tuned, _ := streamPredict(t, ds, small, 8, 1, func(m *Model) {
		if err := m.Retune(0, 16); err != nil {
			t.Fatal(err)
		}
		if got := m.Config().BatchSize; got != 16 {
			t.Fatalf("BatchSize after Retune = %d, want 16", got)
		}
		if got := m.Config().Parallelism; got != 2 {
			t.Fatalf("Retune(0, 16) moved Parallelism to %d", got)
		}
	})
	samePredictions(t, "mid-stream batch retune", a, tuned)
}

// TestRetuneValidation pins Retune's contract: 0 keeps a knob, and the
// merged configuration is validated as a whole before anything is applied.
func TestRetuneValidation(t *testing.T) {
	ds := tieDataset(t)
	cfg := Config{Seed: 1, Parallelism: 2, BatchSize: 8, AnswerWindow: 32}
	m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}

	// Batch above the retention window would break AnswerWindow's invariant.
	if err := m.Retune(0, 64); !errors.Is(err, ErrConfig) {
		t.Fatalf("Retune(0, 64) with AnswerWindow=32: err = %v, want ErrConfig", err)
	}
	if got := m.Config(); got.BatchSize != 8 || got.Parallelism != 2 {
		t.Fatalf("rejected Retune mutated config: %+v", got)
	}

	// Zero (or negative) means keep: a full no-op must succeed and change
	// nothing.
	if err := m.Retune(0, 0); err != nil {
		t.Fatalf("Retune(0, 0) = %v, want nil", err)
	}
	if err := m.Retune(-3, -1); err != nil {
		t.Fatalf("Retune(-3, -1) = %v, want nil (negative = keep)", err)
	}
	if got := m.Config(); got.BatchSize != 8 || got.Parallelism != 2 {
		t.Fatalf("no-op Retune mutated config: %+v", got)
	}

	// A valid retune inside the window is accepted.
	if err := m.Retune(4, 16); err != nil {
		t.Fatal(err)
	}
	if got := m.Config(); got.BatchSize != 16 || got.Parallelism != 4 {
		t.Fatalf("Retune(4, 16) applied %+v", got)
	}
}
