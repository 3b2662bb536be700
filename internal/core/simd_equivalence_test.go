package core

import (
	"testing"

	"cpa/internal/datasets"
	"cpa/internal/mathx"
)

// The inference-level half of the ISSUE 6 bit-exactness contract: the whole
// variational loop — not just individual kernels — must produce identical
// results for every kernel backend registered on this CPU, on both the batch
// and streaming paths. The kernel-level equivalence suite lives in
// internal/mathx; this test catches anything it can't: call-site mistakes
// (a hot loop bypassing the dispatched kernels with its own accumulation
// order) and interactions between backends and the sharded map-reduce.
//
// Two invariants, deliberately distinct in strength:
//
//  1. Backend invariance (bit-exact): at a FIXED Parallelism, swapping the
//     kernel backend must not move a single bit of phi/kappa/lambda or any
//     prediction. The SIMD kernels implement the same canonical reduction
//     order as the scalar reference, so the fitted parameters are the same
//     float64s no matter which instruction set computed them.
//
//  2. Parallelism invariance (bit-exact too): the sharded map-reduce sums
//     fixed per-block buffers in block order whatever the shard count, so
//     every Parallelism produces the same parameters and predictions.

// fitFingerprint fits a fresh model and returns the flat parameter blocks
// plus predictions. The caller compares fingerprints across backends.
type fitFingerprint struct {
	phi, kappa, lambda []float64
	preds              []string
}

func fingerprint(t *testing.T, backend string, parallelism int, online bool) fitFingerprint {
	t.Helper()
	if err := mathx.ForceBackend(backend); err != nil {
		t.Fatal(err)
	}
	ds, _, err := datasets.Load("movie", 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 23, Parallelism: parallelism, BatchSize: 64}
	model, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if online {
		_, err = model.FitStream(ds)
	} else {
		_, err = model.Fit(ds)
	}
	if err != nil {
		t.Fatal(err)
	}
	preds, err := model.Predict()
	if err != nil {
		t.Fatal(err)
	}
	fp := fitFingerprint{
		phi:    append([]float64(nil), model.phi.Data()...),
		kappa:  append([]float64(nil), model.kappa.Data()...),
		lambda: append([]float64(nil), model.lambda.Data()...),
	}
	for _, p := range preds {
		fp.preds = append(fp.preds, p.String())
	}
	return fp
}

func samePreds(t *testing.T, what string, ref, got fitFingerprint) {
	t.Helper()
	if len(ref.preds) != len(got.preds) {
		t.Fatalf("%s: %d vs %d predictions", what, len(ref.preds), len(got.preds))
	}
	for i := range ref.preds {
		if ref.preds[i] != got.preds[i] {
			t.Fatalf("%s: item %d predicted %v vs %v", what, i, got.preds[i], ref.preds[i])
		}
	}
}

func sameFingerprint(t *testing.T, what string, ref, got fitFingerprint) {
	t.Helper()
	cmp := func(block string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s %s: %d vs %d entries", what, block, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s %s: entry %d differs: %v vs %v (must be bit-identical)",
					what, block, i, a[i], b[i])
			}
		}
	}
	cmp("phi", ref.phi, got.phi)
	cmp("kappa", ref.kappa, got.kappa)
	cmp("lambda", ref.lambda, got.lambda)
	samePreds(t, what, ref, got)
}

func TestFitEquivalenceAcrossBackends(t *testing.T) {
	restore := mathx.ActiveBackend()
	defer mathx.ForceBackend(restore)
	backends := mathx.Backends()
	if len(backends) == 1 {
		t.Log("scalar-only CPU; cross-backend comparison degenerates to a repeat run")
	}
	for _, online := range []bool{false, true} {
		name := "batch"
		if online {
			name = "stream"
		}
		// predRef pins bit invariance across every (backend, P) pair.
		predRef := fingerprint(t, "scalar", 1, online)
		for _, par := range []int{1, 4, 8} {
			// The scalar run at this P is the reference for every backend.
			ref := fingerprint(t, "scalar", par, online)
			sameFingerprint(t, name+"/scalar/P="+itoa(par), predRef, ref)
			for _, backend := range backends {
				if backend == "scalar" {
					continue
				}
				got := fingerprint(t, backend, par, online)
				sameFingerprint(t, name+"/"+backend+"/P="+itoa(par), ref, got)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
