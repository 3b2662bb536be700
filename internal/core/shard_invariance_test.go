package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cpa/internal/datasets"
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
