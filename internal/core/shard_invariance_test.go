package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/datasets"
	"cpa/internal/labelset"
)

// sameBits asserts two float slices are identical bit for bit.
func sameBits(t testing.TB, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d values", what, len(want), len(got))
	}
	for k := range want {
		if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-exact)", what, k, got[k], want[k])
		}
	}
}

// sameModelBits asserts two models hold bit-identical posteriors: κ, ϕ, λ, ζ,
// the calibrated truth ŷ and the community reliabilities.
func sameModelBits(t testing.TB, what string, want, got *Model) {
	t.Helper()
	sameBits(t, what+": κ", want.kappa.Data(), got.kappa.Data())
	sameBits(t, what+": ϕ", want.phi.Data(), got.phi.Data())
	sameBits(t, what+": λ", want.lambda.Data(), got.lambda.Data())
	sameBits(t, what+": ζ", want.zeta.Data(), got.zeta.Data())
	sameBits(t, what+": rel", want.relm, got.relm)
	for i := range want.yhatVals {
		sameBits(t, fmt.Sprintf("%s: ŷ item %d", what, i), want.yhatVals[i], got.yhatVals[i])
	}
}

// sameViewBits asserts two consensus views agree on every label set and
// candidate list, and on every confidence bit for bit.
func sameViewBits(t testing.TB, what string, want, got *ConsensusView) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d vs %d items", what, len(want.Items), len(got.Items))
	}
	for i := range want.Items {
		w, g := want.Items[i], got.Items[i]
		if !reflect.DeepEqual(w.Labels, g.Labels) || !reflect.DeepEqual(w.Candidates, g.Candidates) {
			t.Fatalf("%s item %d: labels/candidates %v %v, want %v %v", what, i, g.Labels, g.Candidates, w.Labels, w.Candidates)
		}
		sameBits(t, fmt.Sprintf("%s item %d confidence", what, i), w.Confidence, g.Confidence)
	}
}

// TestPublishBitIdenticalAcrossShardCounts pins the all-core publisher to
// the block-order reductions: full and incremental views, and the finalize
// clone's posterior, are bit-identical whatever GOMAXPROCS the publisher
// runs on and whatever Parallelism fits the live model. The stream has more
// items than one reduction block, so a reduce that summed per-shard buffers
// would show here.
func TestPublishBitIdenticalAcrossShardCounts(t *testing.T) {
	ds, _, err := datasets.Load("image", 0.15, 41)
	if err != nil {
		t.Fatal(err)
	}
	ds = ds.Shuffled(rand.New(rand.NewSource(41)))
	if ds.NumItems <= 256 {
		t.Fatalf("%d items fit one 256-item reduction block", ds.NumItems)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type arm struct {
		procs, par int
		model      *Model
		pub        *Publisher
	}
	var arms []*arm
	for _, procs := range []int{1, 2} {
		for _, par := range []int{1, 3, 8} {
			m, err := NewModel(Config{Seed: 41, BatchSize: 128, Parallelism: par}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			arms = append(arms, &arm{procs: procs, par: par, model: m, pub: NewPublisher(m)})
		}
	}
	ref := arms[0]
	round, fulls := 0, 0
	for _, b := range ds.Batches(128) {
		round++
		full := round%6 == 1
		if full {
			fulls++
		}
		var refView *ConsensusView
		for _, a := range arms {
			runtime.GOMAXPROCS(a.procs)
			if err := a.model.PartialFit(b.Answers); err != nil {
				t.Fatal(err)
			}
			view, _, err := a.pub.Publish(full)
			if err != nil {
				t.Fatal(err)
			}
			if a == ref {
				refView = view
				continue
			}
			what := fmt.Sprintf("round %d (full=%v) GOMAXPROCS=%d P=%d", round, full, a.procs, a.par)
			sameViewBits(t, what, refView, view)
			if full {
				sameModelBits(t, what+" clone", ref.pub.clone, a.pub.clone)
			}
		}
	}
	if round < 20 || fulls < 4 {
		t.Fatalf("stream too short: %d rounds, %d full", round, fulls)
	}
}

// streamPredict feeds the dataset through PartialFit in batches of chop
// answers, then finalizes and predicts: the serve-layer shape of training,
// where the caller chops the stream and the model never re-chops.
func streamPredict(t testing.TB, ds *answers.Dataset, cfg Config, chop int) ([]labelset.Set, *Model) {
	t.Helper()
	m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ds.Batches(chop) {
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

// TestStreamBitIdenticalAcrossParallelism pins Parallelism as a pure speed
// setting: a stream fitted at fixed P=1 and at fixed P=4 ends bit-identical
// in its predictions, κ, ϕ, λ, ζ, ŷ and reliabilities, so a journal replays
// to the served state whatever Parallelism the replaying model runs at. The
// image stream has more items than one reduction block.
func TestStreamBitIdenticalAcrossParallelism(t *testing.T) {
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
			ref, refM := streamPredict(t, c.ds, cfg, c.chop)
			cfg.Parallelism = 4
			got, gotM := streamPredict(t, c.ds, cfg, c.chop)
			samePredictions(t, "fixed P=1 vs fixed P=4", ref, got)
			sameModelBits(t, "fixed P=1 vs fixed P=4", refM, gotM)
		})
	}
}
