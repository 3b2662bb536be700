//go:build amd64 && !purego

package mathx

import (
	"math"

	"cpa/internal/cpufeat"
)

// AVX2 backend registration and the Go halves of the split kernels: the
// assembly routines (kernels_amd64.s) process the 4-aligned prefix in the
// canonical lane order, and these wrappers fold tails in sequentially —
// the same canonical order the scalar reference specifies — and handle
// digamma's and log's special lanes with the scalar functions.

// simdMinLen is the slice length below which the wrappers stay on the
// scalar reference: under ~8 elements the asm call overhead costs more
// than the vector lanes save, and both paths are bit-identical by
// construction, so the cutoff is a pure performance knob.
const simdMinLen = 8

//go:noescape
func axpyAsm(a float64, x, y []float64)

//go:noescape
func fillAsm(v []float64, x float64)

//go:noescape
func scaleAsm(v []float64, s float64)

//go:noescape
func sumBlockAsm(v []float64) float64

//go:noescape
func flooredDotBlockAsm(w, x []float64, floor float64) float64

//go:noescape
func maxBlockAsm(v []float64) float64

//go:noescape
func expSumBlockAsm(v []float64, maxv float64) float64

//go:noescape
func digammaBlockAsm(x, dst []float64) int

//go:noescape
func logBlockAsm(x, dst []float64) int

//go:noescape
func expBlockAsm(x, dst []float64)

//go:noescape
func addStridedAsm(dst, src []float64, stride int)

//go:noescape
func mulFloorAsm(dst, src []float64, floor float64)

//go:noescape
func addSelectAsm(dst []float64, mask []uint64, on, off float64)

//go:noescape
func axpyGatherSumAsm(a float64, src []float64, offs []int, y []float64)

//go:noescape
func flooredDotGatherSumGroupsAsm(w, src []float64, offs []int, groups []int32, floor float64) float64

func axpyAVX2(a float64, x, y []float64) {
	if len(x) < simdMinLen {
		axpyScalar(a, x, y)
		return
	}
	axpyAsm(a, x, y)
}

func fillAVX2(v []float64, x float64) {
	if len(v) < simdMinLen {
		fillScalar(v, x)
		return
	}
	fillAsm(v, x)
}

func scaleAVX2(v []float64, s float64) {
	if len(v) < simdMinLen {
		scaleScalar(v, s)
		return
	}
	scaleAsm(v, s)
}

func sumAVX2(v []float64) float64 {
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

func flooredDotAVX2(w, x []float64, floor float64) float64 {
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

func digammaRowAVX2(x, dst []float64) { specialBlockRow(x, dst, digammaBlockAsm, Digamma) }

func logRowAVX2(x, dst []float64) { specialBlockRow(x, dst, logBlockAsm, math.Log) }

// specialBlockRow drives a block kernel that writes whole 4-element blocks
// until the first block holding a lane outside its fast path and returns the
// count written: that block (or the tail) goes through the scalar function,
// then the kernel resumes.
func specialBlockRow(x, dst []float64, block func(x, dst []float64) int, scalar func(float64) float64) {
	i, n := 0, len(x)
	for i < n {
		if n-i >= simdMinLen {
			i += block(x[i:], dst[i:])
			if i >= n {
				return
			}
		}
		stop := i + 4
		if stop > n {
			stop = n
		}
		for ; i < stop; i++ {
			dst[i] = scalar(x[i])
		}
	}
}

func expRowAVX2(x, dst []float64) {
	n4 := len(x) &^ 3
	if n4 > 0 {
		expBlockAsm(x[:n4], dst)
	}
	for i := n4; i < len(x); i++ {
		dst[i] = math.Exp(x[i])
	}
}

func addStridedAVX2(dst, src []float64, stride int) {
	if len(dst) < simdMinLen {
		addStridedScalar(dst, src, stride)
		return
	}
	addStridedAsm(dst, src, stride)
}

func mulFloorAVX2(dst, src []float64, floor float64) {
	if len(dst) < simdMinLen {
		mulFloorScalar(dst, src, floor)
		return
	}
	mulFloorAsm(dst, src, floor)
}

// addSelectAVX2 runs the 4-aligned prefix in assembly — groups of four
// never straddle a mask word — and the tail on the scalar reference.
func addSelectAVX2(dst []float64, mask []uint64, on, off float64) {
	if len(dst) < simdMinLen {
		addSelectScalar(dst, mask, on, off)
		return
	}
	n4 := len(dst) &^ 3
	addSelectAsm(dst[:n4], mask, on, off)
	for k := n4; k < len(dst); k++ {
		sel := off
		if mask[k>>6]>>(uint(k)&63)&1 != 0 {
			sel = on
		}
		dst[k] += sel
	}
}

func axpyGatherSumAVX2(a float64, src []float64, offs []int, y []float64) {
	if len(y) < simdMinLen {
		axpyGatherSumScalar(a, src, offs, y)
		return
	}
	n4 := len(y) &^ 3
	axpyGatherSumAsm(a, src, offs, y[:n4])
	for i := n4; i < len(y); i++ {
		y[i] += float64(a * gatherSum(src, offs, i))
	}
}

// denseGroups reports whether the surviving groups cover enough of the row
// for the vector kernels to pay: the asm computes all four lanes of every
// listed group (dead lanes blend to +0.0 after doing the gather work),
// while the scalar reference skips dead lanes lazily — so on concentrated
// rows (late-round κ is near one-hot) scalar wins despite being narrower.
// Both impls are bit-identical, so this gate is value-transparent.
func denseGroups(groups []int32, n4 int) bool {
	return 8*len(groups) >= n4
}

// checkGroups bounds-checks a groups list before it reaches unchecked asm.
// The scalar impls don't need this (the runtime's bounds checks cover
// w[4g]); only the dense-row asm path pays the scan, where the vector body
// it guards dwarfs it.
func checkGroups(groups []int32, n4 int) {
	nG := int32(n4 / 4)
	for _, g := range groups {
		if g < 0 || g >= nG {
			panic("mathx: gather kernel group index out of range")
		}
	}
}

func flooredDotGatherSumGroupsAVX2(w, src []float64, offs []int, groups []int32, floor float64) float64 {
	n4 := len(w) &^ 3
	if n4 == 0 || len(groups) == 0 || !denseGroups(groups, n4) {
		return flooredDotGatherSumGroupsScalar(w, src, offs, groups, floor)
	}
	checkGroups(groups, n4)
	s := flooredDotGatherSumGroupsAsm(w[:n4], src, offs, groups, floor)
	for i := n4; i < len(w); i++ {
		p := 0.0
		if w[i] >= floor {
			p = float64(w[i] * gatherSum(src, offs, i))
		}
		s += p
	}
	return s
}

func logSumExpAVX2(v []float64) float64 {
	if len(v) < simdMinLen {
		return logSumExpScalar(v)
	}
	n4 := len(v) &^ 3
	maxv := maxBlockAsm(v[:n4])
	for i := n4; i < len(v); i++ {
		maxv = fmax(v[i], maxv)
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	s := expSumBlockAsm(v[:n4], maxv)
	for i := n4; i < len(v); i++ {
		s += math.Exp(v[i] - maxv)
	}
	return maxv + math.Log(s)
}

func registerSIMDBackends() {
	if !cpufeat.X86.HasAVX2 {
		return
	}
	avx2 := kernelImpl{
		name:       "avx2",
		axpy:       axpyAVX2,
		fill:       fillAVX2,
		scale:      scaleAVX2,
		sum:        sumAVX2,
		flooredDot: flooredDotAVX2,
		digammaRow: digammaRowAVX2,
		logRow:     logRowAVX2,
		expRow:     expRowScalar,
		logSumExp:  logSumExpScalar,
		addStrided: addStridedAVX2,
		mulFloor:   mulFloorAVX2,
		addSelect:  addSelectAVX2,

		axpyGatherSum:             axpyGatherSumAVX2,
		flooredDotGatherSumGroups: flooredDotGatherSumGroupsAVX2,
	}
	// The vector exp replicates math.archExp's FMA variant, so it is only
	// bit-identical to scalar math.Exp when the runtime takes that same
	// path (math's useFMA: AVX && FMA). Without FMA, LogSumExp and ExpRow
	// stay on the scalar kernels.
	if cpufeat.X86.HasAVX && cpufeat.X86.HasFMA {
		avx2.logSumExp = logSumExpAVX2
		avx2.expRow = expRowAVX2
	}
	backends = append(backends, avx2)
}
