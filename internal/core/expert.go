package core

import (
	"fmt"

	"cpa/internal/mat"
)

// SetExpertCooccurrence installs external label-dependency knowledge — the
// extension the paper sketches in §3.2/§6: "prior knowledge could be
// expressed as conditional probabilities, which are then integrated in the
// label selection". cooc[a][b] ∈ [0,1] is the expert belief that label b is
// present given that label a is (rows need not be normalised; zero rows mean
// "no knowledge"). During truth imputation, a label's prior is floored at
// the strongest expert implication from labels currently believed present,
// so domain rules like "superhero ⇒ action" lift under-voted co-occurring
// labels.
//
// The matrix must be C×C. Passing nil removes the prior. This is learned
// co-occurrence's complement: the nonparametric clusters discover
// dependencies from data, the expert matrix injects them a priori. The
// rows are copied into a dense internal matrix at this boundary.
func (m *Model) SetExpertCooccurrence(cooc [][]float64) error {
	if cooc == nil {
		m.expertCooc = nil
		return nil
	}
	if len(cooc) != m.numLabels {
		return fmt.Errorf("%w: co-occurrence matrix has %d rows, want %d", ErrConfig, len(cooc), m.numLabels)
	}
	dense := mat.New(m.numLabels, m.numLabels)
	for a, row := range cooc {
		if len(row) != m.numLabels {
			return fmt.Errorf("%w: co-occurrence row %d has %d entries, want %d", ErrConfig, a, len(row), m.numLabels)
		}
		for b, v := range row {
			if v < 0 || v > 1 {
				return fmt.Errorf("%w: co-occurrence[%d][%d]=%v outside [0,1]", ErrConfig, a, b, v)
			}
		}
		copy(dense.Row(a), row)
	}
	m.expertCooc = dense
	return nil
}

// expertPriorFloor returns the strongest expert implication toward label c
// from the labels currently believed present on an item, given its voted
// labels and their aligned ŷ (imputed expectation above ½). Returns 0 when
// no expert knowledge is installed.
func (m *Model) expertPriorFloor(voted []int, vals []float64, c int) float64 {
	if m.expertCooc == nil {
		return 0
	}
	best := 0.0
	for k, a := range voted {
		if a == c || vals[k] <= 0.5 {
			continue
		}
		if v := m.expertCooc.At(a, c); v > best {
			best = v
		}
	}
	return best
}
