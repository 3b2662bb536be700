package mathx

import "math"

// This file is the repository's single home for the hot-loop vector
// kernels: the exported entry points every caller — internal/mat,
// internal/core, the baselines — routes through, one per kernel, plus the
// portable scalar reference implementations that double as the
// always-available fallback and the test oracle for the AVX2 backend
// (dispatch.go, kernels_amd64.s). Every other architecture runs the
// scalar reference.
//
// # Bit-exactness contract
//
// The kernels come in two classes:
//
//   - Element-wise kernels (Axpy, Fill, Scale, DigammaRow, LogRow,
//     ExpRow): no cross-element accumulation, so any vectorisation
//     is bit-identical to the scalar loop as long as each element sees the
//     same operation sequence. The one hazard is fused multiply-add: an FMA contracts
//     a*x+y into one rounding where the contract requires two, so the
//     scalar loops force the intermediate rounding with a float64()
//     conversion (the Go-spec idiom that forbids fusion — without it the
//     compiler fuses on arm64 and results would differ from amd64), and
//     the SIMD backends use separate vector mul + add instructions.
//
//   - Reduction kernels (Sum, FlooredDot, LogSumExp's max and exp-sum
//     passes): float addition is order-sensitive, so these define ONE
//     canonical reduction order — four strided lane accumulators over the
//     4-aligned prefix, lanes combined as (s0+s2)+(s1+s3), remainder folded
//     in sequentially — implemented identically here and in every SIMD
//     backend. The lane combine is exactly what a 4-lane vector register
//     reduces to via extract-high + vertical add + horizontal add, so the
//     SIMD path needs no scalar drain loop and the scalar path is the
//     specification. Masked entries (FlooredDot's floor) contribute an
//     explicit +0.0 to their lane rather than being skipped: a vector
//     blend-to-zero adds +0.0, and skipping would diverge from it when a
//     lane accumulator holds -0.0.
//
// DigammaRow, LogRow, ExpRow and LogSumExp additionally evaluate
// math-library primitives (log, exp). Their SIMD backends replicate the
// platform libm algorithm instruction for instruction (see
// kernels_amd64.s), so backends agree bit-for-bit with the scalar reference
// *on the same platform*; across platforms these four kernels inherit
// whatever per-architecture exp/log the Go runtime ships
// (math.archExp/archLog differ between amd64 and arm64 already today). The
// pure-arithmetic kernels are bit-identical everywhere.
//
// NaN *payload and sign* bits are excluded from the contract: any NaN
// result matches any NaN result. IEEE 754 leaves payload propagation to the
// implementation — x86 invents the "indefinite" NaN (sign bit set, zero
// payload) for Inf-Inf, and when two NaNs with different payloads meet in
// one add even the scalar result depends on which operand the compiler's
// register allocator made the destination. Whether a result IS NaN is fully
// specified and backends must agree on it; which NaN is not specifiable.

// Axpy computes y[i] += a*x[i] over the shorter of the two slices. Element-
// wise (no cross-element accumulation), so every backend is bit-identical
// to this scalar loop. The inference hot loops call it with equal-length
// row views.
func Axpy(a float64, x, y []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n == 0 {
		return
	}
	active.axpy(a, x[:n], y[:n])
}

// Fill sets every element of v to x and returns v for chaining.
func Fill(v []float64, x float64) []float64 {
	if len(v) > 0 {
		active.fill(v, x)
	}
	return v
}

// Scale multiplies every element of v by s in place.
func Scale(v []float64, s float64) {
	if len(v) > 0 {
		active.scale(v, s)
	}
}

// Sum returns the sum of v in the canonical 4-lane-strided reduction order
// (see the package bit-exactness contract).
func Sum(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return active.sum(v)
}

// FlooredDot returns Σ_i w[i]·x[i] over entries with w[i] >= floor — the
// respFloor-guarded community reductions of the score kernels — over the
// shorter of the two slices, accumulated in the canonical 4-lane-strided
// order. Entries under the floor contribute an explicit +0.0 to their lane
// (blend semantics), so SIMD masking is bit-identical.
func FlooredDot(w, x []float64, floor float64) float64 {
	n := len(w)
	if len(x) < n {
		n = len(x)
	}
	if n == 0 {
		return 0
	}
	return active.flooredDot(w[:n], x[:n], floor)
}

// DigammaRow fills dst[i] = ψ(x[i]) over the shorter of the two slices —
// the vectorised form the expectation refresh walks the λ cube with. Each
// entry computes the same per-element evaluation as Digamma (the SIMD
// backends replicate it lane-parallel, including the platform math.Log),
// so results are bit-identical to a caller-side scalar loop.
func DigammaRow(x, dst []float64) {
	n := len(x)
	if len(dst) < n {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	active.digammaRow(x[:n], dst[:n])
}

// LogRow fills dst[i] = math.Log(x[i]) over the shorter of the two slices.
// Element-wise: the SIMD backends replicate the platform math.Log
// lane-parallel for positive normal inputs and hand every other input to
// math.Log itself, so results are bit-identical to a caller-side scalar
// loop. dst may alias x.
func LogRow(x, dst []float64) {
	n := len(x)
	if len(dst) < n {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	active.logRow(x[:n], dst[:n])
}

// ExpRow fills dst[i] = math.Exp(x[i]) over the shorter of the two slices,
// bit-identical to a caller-side scalar loop on every backend (see LogRow).
// dst may alias x.
func ExpRow(x, dst []float64) {
	n := len(x)
	if len(dst) < n {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	active.expRow(x[:n], dst[:n])
}

// AddStrided computes dst[i] += src[i*stride] — the strided gather the
// label-set panel fills walk the ψ cube with (one pass per set member,
// contiguous writes, stride-C reads). Element-wise, so every backend is
// bit-identical to the scalar loop. Panics when src is too short for the
// stride (a programming error at the panel layer).
func AddStrided(dst, src []float64, stride int) {
	if len(dst) == 0 {
		return
	}
	if stride < 1 || len(src) < (len(dst)-1)*stride+1 {
		panic("mathx: AddStrided stride/length mismatch")
	}
	active.addStrided(dst, src, stride)
}

// MulFloor computes dst[i] *= max(src[i], floor) — the product-panel and
// prediction-product step, where cube entries are clamped to a tiny
// positive floor before multiplying. The clamp keeps the scalar semantics
// exactly: v if v >= floor (and for NaN v), else floor. Element-wise, so
// every backend is bit-identical to the scalar loop. Panics when src is
// shorter than dst (a programming error at the panel layer).
func MulFloor(dst, src []float64, floor float64) {
	if len(dst) == 0 {
		return
	}
	if len(src) < len(dst) {
		panic("mathx: MulFloor src shorter than dst")
	}
	active.mulFloor(dst, src[:len(dst)], floor)
}

// AxpyGatherSum computes y[i] += a · Σ_j src[offs[j]+i] — the fused form
// of "build a panel row from |offs| contiguous cube runs, then AXPY it":
// one pass, no intermediate stores. The inner sum runs over offs in order
// starting from 0.0 (the canonical member order of the panel fills), and
// a·sum rounds once before the add into y — exactly the scalar fallback's
// dst[m] += float64(w*s). Element-wise over i, so every backend is
// bit-identical. Panics when an offset would read past src (a programming
// error at the panel layer).
func AxpyGatherSum(a float64, src []float64, offs []int, y []float64) {
	if len(y) == 0 {
		return
	}
	for _, o := range offs {
		if o < 0 || o+len(y) > len(src) {
			panic("mathx: AxpyGatherSum offset out of range")
		}
	}
	active.axpyGatherSum(a, src, offs, y)
}

// AddSelect computes dst[k] += on where bit k of mask is set (word k/64,
// bit k%64) and dst[k] += off where it is clear — the two-coin vote/miss
// accumulation of one answer over an item's voted labels, with the
// answer's labels given as a mask of their ranks. Element-wise, so every
// backend is bit-identical to the scalar loop: each element sees one add
// of the selected value. Panics when mask holds fewer than len(dst) bits.
func AddSelect(dst []float64, mask []uint64, on, off float64) {
	if len(dst) == 0 {
		return
	}
	if len(mask) < (len(dst)+63)/64 {
		panic("mathx: AddSelect mask shorter than dst")
	}
	active.addSelect(dst, mask, on, off)
}

// FloorGroups appends to buf[:0] the index of every 4-element lane group
// of w — group g spans w[4g:4g+4] — holding at least one entry >= floor,
// in increasing order. It is the precomputation step for
// FlooredDotGatherSumGroups: the score kernels scan a responsibility row
// once per answer instead of once per (answer, cluster). Tail entries past
// the 4-aligned prefix are not grouped (every kernel folds them in
// unconditionally). Not backend-dispatched: the scan is branchy and runs
// once per row, not per reduction.
func FloorGroups(w []float64, floor float64, buf []int32) []int32 {
	buf = buf[:0]
	n4 := len(w) &^ 3
	for i := 0; i < n4; i += 4 {
		if w[i] >= floor || w[i+1] >= floor || w[i+2] >= floor || w[i+3] >= floor {
			buf = append(buf, int32(i>>2))
		}
	}
	return buf
}

// FlooredDotGatherSumGroups returns Σ_i w[i]·(Σ_j src[offs[j]+i]) over
// entries with w[i] >= floor — FlooredDot with the gather-sum playing the
// panel entry's role, fused into one pass — visiting only the listed
// 4-element lane groups of the 4-aligned prefix (tail entries are always
// folded in). The reduction over i uses the canonical 4-lane-strided order
// with floored entries contributing an explicit +0.0 (see the package
// contract); each surviving entry's inner sum runs over offs in order
// starting from 0.0, and w·sum rounds once.
//
// groups must be increasing and must include every group with an entry
// passing the floor — FloorGroups(w, floor, …) is the canonical producer;
// extra (fully-floored) groups are harmless. The result is bit-identical
// to listing every group 0…len(w)/4−1: an omitted group contributes an
// explicit +0.0 to each lane accumulator, and a lane that starts at +0.0
// can never reach -0.0 (x + (-x) rounds to +0.0, and ±0.0 + ±0.0 is -0.0
// only when both operands are -0.0), so dropping the +0.0 add leaves every
// accumulator's bits unchanged. Panics on an out-of-range offset or group
// index.
func FlooredDotGatherSumGroups(w, src []float64, offs []int, groups []int32, floor float64) float64 {
	if len(w) == 0 {
		return 0
	}
	for _, o := range offs {
		if o < 0 || o+len(w) > len(src) {
			panic("mathx: FlooredDotGatherSumGroups offset out of range")
		}
	}
	// Group indices are not pre-scanned here: the scalar reference indexes
	// w[4g] under the runtime's bounds checks, and the asm wrappers validate
	// the list themselves before entering unchecked code. Hot callers invoke
	// this once per cluster with the same groups list, so an O(|groups|)
	// scan per call would rival the kernel itself on dense rows.
	return active.flooredDotGatherSumGroups(w, src, offs, groups, floor)
}

// LogSumExp returns ln Σ exp(v_i) computed stably: the running maximum is
// subtracted before exponentiating. An empty slice yields negative infinity
// (the log of an empty sum). Both passes — the max scan and the exp-sum —
// use the canonical 4-lane-strided reduction order.
func LogSumExp(v []float64) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	return active.logSumExp(v)
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (the canonical specification)
// ---------------------------------------------------------------------------

// axpyScalar: y[i] += a*x[i], 4-way unrolled. The float64() conversions pin
// the product's intermediate rounding (no FMA contraction — see the package
// contract); on amd64 they are no-ops, on arm64 they stop the compiler
// emitting FMADDD.
func axpyScalar(a float64, x, y []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += float64(a * x[i])
		y[i+1] += float64(a * x[i+1])
		y[i+2] += float64(a * x[i+2])
		y[i+3] += float64(a * x[i+3])
	}
	for ; i < len(x); i++ {
		y[i] += float64(a * x[i])
	}
}

func fillScalar(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

func scaleScalar(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// sumScalar is the canonical 4-lane-strided sum.
func sumScalar(v []float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(v) &^ 3
	for i := 0; i < n4; i += 4 {
		s0 += v[i]
		s1 += v[i+1]
		s2 += v[i+2]
		s3 += v[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n4; i < len(v); i++ {
		s += v[i]
	}
	return s
}

// flooredDotScalar is the canonical 4-lane-strided floored dot. Masked
// entries add +0.0 (never skipped): the SIMD blend adds +0.0 too, and
// -0.0 + +0.0 = +0.0 means a skip would diverge on -0.0 accumulators.
func flooredDotScalar(w, x []float64, floor float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(w) &^ 3
	for i := 0; i < n4; i += 4 {
		p0, p1, p2, p3 := 0.0, 0.0, 0.0, 0.0
		if w[i] >= floor {
			p0 = float64(w[i] * x[i])
		}
		if w[i+1] >= floor {
			p1 = float64(w[i+1] * x[i+1])
		}
		if w[i+2] >= floor {
			p2 = float64(w[i+2] * x[i+2])
		}
		if w[i+3] >= floor {
			p3 = float64(w[i+3] * x[i+3])
		}
		s0 += p0
		s1 += p1
		s2 += p2
		s3 += p3
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n4; i < len(w); i++ {
		p := 0.0
		if w[i] >= floor {
			p = float64(w[i] * x[i])
		}
		s += p
	}
	return s
}

// addStridedScalar: dst[i] += src[i*stride]. Element-wise; the exported
// wrapper has validated the stride.
func addStridedScalar(dst, src []float64, stride int) {
	for i := range dst {
		dst[i] += src[i*stride]
	}
}

// mulFloorScalar: dst[i] *= max(src[i], floor), where the clamp keeps v
// when v >= floor or v is NaN — the exact semantics of the hardware MAXPD
// with the floor as first source, which is what lets the SIMD backend
// match bit-for-bit.
func mulFloorScalar(dst, src []float64, floor float64) {
	for i := range dst {
		v := src[i]
		if v < floor {
			v = floor
		}
		dst[i] *= v
	}
}

// addSelectScalar: dst[k] += on or off by bit k of mask, without a branch
// on the bit (the bits of an answer's rank mask do not predict).
func addSelectScalar(dst []float64, mask []uint64, on, off float64) {
	for k := range dst {
		sel := off
		if mask[k>>6]>>(uint(k)&63)&1 != 0 {
			sel = on
		}
		dst[k] += sel
	}
}

// gatherSum is the inner sum both gather kernels share: Σ_j src[offs[j]+i],
// accumulated sequentially in offs order from 0.0 (panel-fill order — the
// bits every backend must reproduce per element).
func gatherSum(src []float64, offs []int, i int) float64 {
	s := 0.0
	for _, o := range offs {
		s += src[o+i]
	}
	return s
}

// axpyGatherSumScalar: y[i] += a·gatherSum(i), element-wise, with the
// product's intermediate rounding pinned (no FMA contraction).
func axpyGatherSumScalar(a float64, src []float64, offs []int, y []float64) {
	for i := range y {
		y[i] += float64(a * gatherSum(src, offs, i))
	}
}

// flooredDotGatherSumGroupsScalar: flooredDotScalar's canonical 4-lane
// structure, with the gather-sum in x's role, walked over the listed
// groups only. Each group's lane updates are exactly flooredDotScalar's
// for that block, so inclusion of a fully-floored group (+0.0 per lane)
// and omission produce the same bits — see the exported wrapper's
// contract. The sum is computed lazily — only for entries passing the
// floor — which the AVX2 kernel matches by skipping the gather for
// fully-masked lane groups (masked lanes of a mixed group compute and then
// blend to +0.0, same bits either way).
func flooredDotGatherSumGroupsScalar(w, src []float64, offs []int, groups []int32, floor float64) float64 {
	var s0, s1, s2, s3 float64
	for _, g := range groups {
		i := int(g) * 4
		p0, p1, p2, p3 := 0.0, 0.0, 0.0, 0.0
		if w[i] >= floor {
			p0 = float64(w[i] * gatherSum(src, offs, i))
		}
		if w[i+1] >= floor {
			p1 = float64(w[i+1] * gatherSum(src, offs, i+1))
		}
		if w[i+2] >= floor {
			p2 = float64(w[i+2] * gatherSum(src, offs, i+2))
		}
		if w[i+3] >= floor {
			p3 = float64(w[i+3] * gatherSum(src, offs, i+3))
		}
		s0 += p0
		s1 += p1
		s2 += p2
		s3 += p3
	}
	s := (s0 + s2) + (s1 + s3)
	for i := len(w) &^ 3; i < len(w); i++ {
		p := 0.0
		if w[i] >= floor {
			p = float64(w[i] * gatherSum(src, offs, i))
		}
		s += p
	}
	return s
}

func digammaRowScalar(x, dst []float64) {
	for i := range x {
		dst[i] = Digamma(x[i])
	}
}

func logRowScalar(x, dst []float64) {
	for i := range x {
		dst[i] = math.Log(x[i])
	}
}

func expRowScalar(x, dst []float64) {
	for i := range x {
		dst[i] = math.Exp(x[i])
	}
}

// fmax is the IEEE max-with-second-operand-ties primitive every backend's
// max scan is built from: a if a > b, else b — so NaN a is skipped (keeps
// b), NaN b propagates, and ±0 ties keep b. It matches the hardware MAXPD
// semantics exactly, which is what lets the vector lane scan and this
// scalar loop produce identical bits.
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// maxStrided is the canonical 4-lane-strided max scan: lane j holds the
// running fmax of elements j, j+4, …; lanes combine as
// fmax(fmax(m3,m1), fmax(m2,m0)); the remainder folds in sequentially.
func maxStrided(v []float64) float64 {
	ninf := math.Inf(-1)
	m0, m1, m2, m3 := ninf, ninf, ninf, ninf
	n4 := len(v) &^ 3
	for i := 0; i < n4; i += 4 {
		m0 = fmax(v[i], m0)
		m1 = fmax(v[i+1], m1)
		m2 = fmax(v[i+2], m2)
		m3 = fmax(v[i+3], m3)
	}
	m := fmax(fmax(m3, m1), fmax(m2, m0))
	for i := n4; i < len(v); i++ {
		m = fmax(v[i], m)
	}
	return m
}

// expSumStrided is the canonical 4-lane-strided Σ exp(v_i - maxv).
func expSumStrided(v []float64, maxv float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(v) &^ 3
	for i := 0; i < n4; i += 4 {
		s0 += math.Exp(v[i] - maxv)
		s1 += math.Exp(v[i+1] - maxv)
		s2 += math.Exp(v[i+2] - maxv)
		s3 += math.Exp(v[i+3] - maxv)
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n4; i < len(v); i++ {
		s += math.Exp(v[i] - maxv)
	}
	return s
}

// logSumExpScalar composes the two canonical passes. Callers guarantee
// len(v) > 0.
func logSumExpScalar(v []float64) float64 {
	maxv := maxStrided(v)
	if math.IsInf(maxv, -1) {
		return maxv
	}
	return maxv + math.Log(expSumStrided(v, maxv))
}
