// Package mat is the repository's dense storage layer: a small row-major
// matrix type over a flat []float64 backing, and a sharded accumulator
// that generalises the paper's Algorithm 3 map-reduce (goroutine shards
// substituting for Spark executors, DESIGN.md D5). The vector kernels
// themselves live in internal/mathx; Dense's methods call them on the
// backing slice or a row view.
//
// Every parameter block of the CPA model — and of the EM/BCC/cBCC
// baselines — is a Dense: one contiguous allocation, zero-alloc row views,
// cache-friendly sequential access in the update loops. The package has no
// dependencies beyond the standard library and internal/mathx, and all
// row kernels are allocation-free, so they are safe inside the map shards.
package mat

import (
	"fmt"

	"cpa/internal/mathx"
)

// Dense is a row-major matrix backed by one flat []float64. The zero value
// is an empty matrix; use New to allocate.
type Dense struct {
	rows, cols int
	data       []float64
}

// New allocates a rows×cols matrix of zeros. It panics on negative
// dimensions (a programming error, not a recoverable condition).
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: New(%d, %d) with negative dimension", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Size returns rows*cols.
func (d *Dense) Size() int { return len(d.data) }

// Data returns the flat row-major backing slice. Mutations through it are
// visible in the matrix; it is the IO boundary for persistence and tests.
func (d *Dense) Data() []float64 { return d.data }

// Row returns a zero-alloc view of row i, valid until the matrix is
// reallocated (which Dense never does after New).
func (d *Dense) Row(i int) []float64 {
	return d.data[i*d.cols : (i+1)*d.cols]
}

// At returns the element at (i, j).
func (d *Dense) At(i, j int) float64 { return d.data[i*d.cols+j] }

// Set assigns the element at (i, j).
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.cols+j] = v }

// Fill sets every element to x.
func (d *Dense) Fill(x float64) { mathx.Fill(d.data, x) }

// Zero sets every element to 0.
func (d *Dense) Zero() { d.Fill(0) }

// CopyFrom copies src's contents into d. It panics on shape mismatch.
func (d *Dense) CopyFrom(src *Dense) {
	if d.rows != src.rows || d.cols != src.cols {
		panic("mat: CopyFrom shape mismatch")
	}
	copy(d.data, src.data)
}

// Clone returns an independent deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{rows: d.rows, cols: d.cols, data: append([]float64(nil), d.data...)}
}

// MaxAbsDiff returns max |d_ij - o_ij|, the convergence criterion of the
// paper's Algorithm 1. It panics on shape mismatch.
func (d *Dense) MaxAbsDiff(o *Dense) float64 {
	if d.rows != o.rows || d.cols != o.cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	return mathx.MaxAbsDiff(d.data, o.data)
}

// RowSum returns the sum of row i.
func (d *Dense) RowSum(i int) float64 { return mathx.Sum(d.Row(i)) }

// SoftmaxRow exponentiates-and-normalises row i in place (log weights in,
// probability vector out).
func (d *Dense) SoftmaxRow(i int) { mathx.SoftmaxInPlace(d.Row(i)) }

// NormalizeRow scales the non-negative row i to sum to one (uniform on a
// degenerate row), returning the original sum.
func (d *Dense) NormalizeRow(i int) float64 { return mathx.NormalizeInPlace(d.Row(i)) }

// ColSumsInto accumulates the column sums of the listed rows into dst
// (dst[j] += Σ_{i∈rows} d_ij) without allocating; a nil rows slice sums
// every row. dst must have Cols entries and is NOT zeroed first, so callers
// can chain accumulations.
func (d *Dense) ColSumsInto(dst []float64, rows []int) {
	if len(dst) != d.cols {
		panic("mat: ColSumsInto length mismatch")
	}
	// Each row folds in element-wise via the dispatched Axpy kernel with
	// a = 1 (1·v ≡ v bit-for-bit, including NaN and signed zeros), so the
	// row-by-row accumulation order — and hence the result — is unchanged
	// from the scalar loops this replaces.
	if rows == nil {
		for i := 0; i < d.rows; i++ {
			mathx.Axpy(1, d.Row(i), dst)
		}
		return
	}
	for _, i := range rows {
		mathx.Axpy(1, d.Row(i), dst)
	}
}
