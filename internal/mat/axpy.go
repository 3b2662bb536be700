package mat

import "cpa/internal/mathx"

// The row/vector kernels the inference hot loops are written in. Since the
// SIMD kernel layer (ISSUE 6) there is exactly one implementation of each
// kernel — the runtime-dispatched entry points in internal/mathx — and
// these wrappers exist so core's call sites keep reading mat.Axpy /
// mat.FlooredDot next to the Dense they operate on. Each wrapper is a
// single call and inlines away.

// Axpy computes y[i] += a*x[i] over the shorter of the two slices. Element-
// wise, hence bit-identical across every kernel backend — the property the
// panel-cached score kernels rely on. The inference hot loops call it with
// equal-length row views.
func Axpy(a float64, x, y []float64) { mathx.Axpy(a, x, y) }

// AddScaled computes y[i] = y[i]*b + a*x[i] element-wise (the fused form of
// the SVI blending updates), equally bit-stable.
func AddScaled(b, a float64, x, y []float64) { mathx.AddScaled(b, a, x, y) }

// FlooredDot returns Σ_i w[i]·x[i] over entries with w[i] >= floor (the
// respFloor-guarded community reductions of the score kernels), accumulated
// in the canonical 4-lane-strided reduction order shared by every backend —
// results are bit-identical across platforms and Parallelism settings.
func FlooredDot(w, x []float64, floor float64) float64 {
	return mathx.FlooredDot(w, x, floor)
}
