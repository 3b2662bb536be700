// Package mathx supplies the special functions and numerically stable
// primitives that the CPA variational inference engine depends on and that
// the Go standard library does not provide: the digamma function, stable
// log-sum-exp reductions, in-place softmax, and a handful of small vector
// helpers used across the inference hot loops.
//
// All functions are pure and allocation-free unless documented otherwise, so
// they are safe for concurrent use from the map-reduce inference shards.
package mathx

import "math"

// digammaLargeCutoff is the argument above which the asymptotic expansion of
// the digamma function is accurate to near machine precision. Arguments below
// the cutoff are shifted upward with the recurrence ψ(x) = ψ(x+1) - 1/x.
const digammaLargeCutoff = 6.0

// Digamma returns ψ(x), the logarithmic derivative of the Gamma function,
// for x > 0. For x <= 0 it returns NaN for non-positive integers (poles) and
// uses the reflection formula ψ(1-x) - ψ(x) = π·cot(πx) otherwise.
//
// Accuracy is better than 1e-12 absolute error over (1e-8, 1e8), which is
// ample for variational updates whose inputs are Dirichlet pseudo-counts.
func Digamma(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 1) {
		return x
	}
	if x <= 0 {
		// Poles at 0, -1, -2, ...
		if x == math.Trunc(x) {
			return math.NaN()
		}
		// Reflection: ψ(x) = ψ(1-x) - π·cot(πx).
		return Digamma(1-x) - math.Pi/math.Tan(math.Pi*x)
	}
	result := 0.0
	// Recurrence ψ(x) = ψ(x+1) - 1/x until the asymptotic region.
	for x < digammaLargeCutoff {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion:
	// ψ(x) ≈ ln x - 1/(2x) - Σ B_{2n} / (2n x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	series := inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*(1.0/132-inv2*691.0/32760)))))
	return result + math.Log(x) - 0.5*inv - series
}

// Trigamma returns ψ'(x), the derivative of the digamma function, for x > 0.
// No inference code calls it: it exists as an independent check on Digamma
// (the tests compare Digamma's finite differences against it).
func Trigamma(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 1) {
		return x
	}
	if x <= 0 {
		if x == math.Trunc(x) {
			return math.NaN()
		}
		// Reflection: ψ'(x) + ψ'(1-x) = π² / sin²(πx).
		s := math.Sin(math.Pi * x)
		return math.Pi*math.Pi/(s*s) - Trigamma(1-x)
	}
	result := 0.0
	for x < digammaLargeCutoff {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ'(x) ≈ 1/x + 1/(2x²) + Σ B_{2n} / x^{2n+1}.
	series := inv * inv2 * (1.0/6 - inv2*(1.0/30-inv2*(1.0/42-inv2*(1.0/30-inv2*(5.0/66-inv2*691.0/2730)))))
	return result + inv + 0.5*inv2 + series
}

// LogGamma returns ln Γ(x) for x > 0. It wraps math.Lgamma and discards the
// sign, which is always +1 on the positive axis where our callers live.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LogBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b).
func LogBeta(a, b float64) float64 {
	return LogGamma(a) + LogGamma(b) - LogGamma(a+b)
}

// SoftmaxInPlace exponentiates-and-normalises the log weights in v so they
// form a probability vector, working in place. If every entry is -Inf the
// result is the uniform distribution, which is the harmless choice for a
// responsibility vector with no evidence.
func SoftmaxInPlace(v []float64) {
	if len(v) == 0 {
		return
	}
	lse := LogSumExp(v)
	if math.IsInf(lse, -1) {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return
	}
	for i, x := range v {
		v[i] = math.Exp(x - lse)
	}
}

// NormalizeInPlace scales the non-negative vector v to sum to one. If the sum
// is zero or not finite the vector is set to uniform. It returns the original
// sum so callers can detect degeneracy. The sum uses the canonical kernel
// reduction order (Sum), so normalisation is bit-identical across backends.
func NormalizeInPlace(v []float64) float64 {
	sum := Sum(v)
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return sum
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
	return sum
}

// Dot returns the inner product of a and b. It panics if the lengths differ,
// because a length mismatch in an inference loop is a programming error, not
// a recoverable condition.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// ArgMax returns the index of the maximum element, breaking ties toward the
// smallest index. It returns -1 for an empty slice.
func ArgMax(v []float64) int {
	best, bestIdx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, bestIdx = x, i
		}
	}
	return bestIdx
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MaxAbsDiff returns max_i |a_i - b_i|, the convergence criterion used by
// Algorithm 1 ("all model parameter differences below 1e-3"). It panics on
// length mismatch.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: MaxAbsDiff length mismatch")
	}
	m := 0.0
	for i, x := range a {
		d := math.Abs(x - b[i])
		if d > m {
			m = d
		}
	}
	return m
}
