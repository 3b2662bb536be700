package core

import (
	"testing"

	"cpa/internal/datasets"
)

// TestPartialFitSteadyStateAllocs pins the per-round allocation budget of
// the SVI hot loop. A steady-state round — batch grouping, local blending,
// global step, worker model, expectation refresh — works entirely out of
// the call work; what remains is genuine state growth (answer-chunk and
// arrival-index appends, occasional new interned label sets or panel-cache
// growth), which amortises to a few dozen allocations per round (~40
// measured on the reference machine, dominated by answer-list growth). The
// bound has headroom over that but fails loudly if per-round maps or
// per-shard slices creep back in (the pre-refactor code allocated several
// hundred per round).
func TestPartialFitSteadyStateAllocs(t *testing.T) {
	allocs := steadyPartialFitAllocs(t)
	const maxAllocs = 64
	if allocs > maxAllocs {
		t.Errorf("steady-state PartialFit allocates %.1f times per round, want <= %d", allocs, maxAllocs)
	}
	t.Logf("steady-state PartialFit: %.1f allocs/round", allocs)
}

// steadyPartialFitAllocs streams a dataset once, then returns the
// allocations per PartialFit round of one repeated batch.
func steadyPartialFitAllocs(t *testing.T) float64 {
	t.Helper()
	ds, _, err := datasets.Load("image", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Seed: 1, BatchSize: 128}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: stream the whole dataset once so the interner, voted lists,
	// scratch buffers, and panel caches reach steady state.
	if _, err := m.FitStream(ds); err != nil {
		t.Fatal(err)
	}
	batch := ds.Answers()[:128]
	return testing.AllocsPerRun(40, func() {
		if err := m.PartialFit(batch); err != nil {
			t.Fatal(err)
		}
	})
}
