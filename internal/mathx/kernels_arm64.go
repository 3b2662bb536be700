//go:build arm64 && !purego

package mathx

import "cpa/internal/cpufeat"

// NEON backend registration and the Go halves of the split reduction
// kernels (kernels_arm64.s). Same structure as the amd64 backend: the
// assembly walks the 4-aligned prefix in the canonical lane order and the
// wrappers fold tails sequentially.
//
// Only the pure-arithmetic kernels are vectorised on arm64. DigammaRow,
// LogRow, ExpRow and LogSumExp stay on the scalar reference: their SIMD
// variants require replicating the platform math.Log/math.Exp algorithm
// lane-parallel (arm64's runtime uses different archExp/archLog code than
// amd64), and without arm64 hardware in the development loop a
// hand-replicated transcendental kernel cannot be bit-verified against the
// scalar oracle. The scalar fallback is always correct, merely slower; a
// future backend can upgrade these four pointers once it can run the
// equivalence suite.

// simdMinLen is the slice length below which the wrappers stay on the
// scalar reference — same pure-perf cutoff as the amd64 backend.
const simdMinLen = 8

//go:noescape
func axpyAsm(a float64, x, y []float64)

//go:noescape
func addScaledAsm(b, a float64, x, y []float64)

//go:noescape
func fillAsm(v []float64, x float64)

//go:noescape
func scaleAsm(v []float64, s float64)

//go:noescape
func sumBlockAsm(v []float64) float64

//go:noescape
func flooredDotBlockAsm(w, x []float64, floor float64) float64

func axpyNEON(a float64, x, y []float64) {
	if len(x) < simdMinLen {
		axpyScalar(a, x, y)
		return
	}
	axpyAsm(a, x, y)
}

func addScaledNEON(b, a float64, x, y []float64) {
	if len(x) < simdMinLen {
		addScaledScalar(b, a, x, y)
		return
	}
	addScaledAsm(b, a, x, y)
}

func fillNEON(v []float64, x float64) {
	if len(v) < simdMinLen {
		fillScalar(v, x)
		return
	}
	fillAsm(v, x)
}

func scaleNEON(v []float64, s float64) {
	if len(v) < simdMinLen {
		scaleScalar(v, s)
		return
	}
	scaleAsm(v, s)
}

func sumNEON(v []float64) float64 {
	if len(v) < simdMinLen {
		return sumScalar(v)
	}
	n4 := len(v) &^ 3
	s := sumBlockAsm(v[:n4])
	for i := n4; i < len(v); i++ {
		s += v[i]
	}
	return s
}

func flooredDotNEON(w, x []float64, floor float64) float64 {
	if len(w) < simdMinLen {
		return flooredDotScalar(w, x, floor)
	}
	n4 := len(w) &^ 3
	s := flooredDotBlockAsm(w[:n4], x[:n4], floor)
	for i := n4; i < len(w); i++ {
		p := 0.0
		if w[i] >= floor {
			p = float64(w[i] * x[i])
		}
		s += p
	}
	return s
}

func registerSIMDBackends() {
	if !cpufeat.ARM64.HasNEON {
		return
	}
	// The strided gather kernels stay scalar on arm64 too: NEON has no
	// gather loads, so a vector version is lane-by-lane LD1 inserts with
	// no arithmetic density to amortise them — measure on hardware before
	// bothering. Element-wise contract means scalar is bit-identical.
	backends = append(backends, kernelImpl{
		name:            "neon",
		axpy:            axpyNEON,
		addScaled:       addScaledNEON,
		fill:            fillNEON,
		scale:           scaleNEON,
		sum:             sumNEON,
		flooredDot:      flooredDotNEON,
		digammaRow:      digammaRowScalar,
		logRow:          logRowScalar,
		expRow:          expRowScalar,
		logSumExp:       logSumExpScalar,
		addStrided:      addStridedScalar,
		mulStridedFloor: mulStridedFloorScalar,

		axpyGatherSum:             axpyGatherSumScalar,
		flooredDotGatherSum:       flooredDotGatherSumScalar,
		flooredDotGatherSumGroups: flooredDotGatherSumGroupsScalar,
	})
}
