//go:build amd64 && !purego

// AVX2 kernel backends. Every routine here implements the
// canonical kernel semantics specified by the scalar reference loops in
// kernels.go, bit for bit:
//
//   - Element-wise kernels use separate VMULPD + VADDPD (never FMA), so
//     each element sees exactly the two roundings the scalar loop performs.
//   - Reduction kernels keep four lane accumulators in one ymm register and
//     combine them as (s0+s2)+(s1+s3) via extract-high + vertical add +
//     horizontal add — the canonical 4-lane-strided order. Callers (the Go
//     wrappers in kernels_amd64.go) fold any tail in sequentially after the
//     combine, exactly like the scalar reference.
//   - FlooredDot masks with VCMPPD(GE_OS) + VANDPD, so sub-floor entries
//     contribute +0.0 to their lane — matching the scalar reference's
//     explicit +0.0 adds.
//   - expSumBlock and expBlock replicate math.archExp's AVX/FMA path
//     (exp_amd64.s, useFMA variant) lane-parallel in the EXP4 macro,
//     including the fused final x*(x+2)+1 step and ldexp's two-multiply
//     denormal path, so each exp matches a scalar math.Exp bit for bit on
//     any CPU where useFMA is set (the wrappers only register them when
//     cpufeat reports AVX+FMA).
//   - logBlock replicates math.archLog (log_amd64.s) lane-parallel in the
//     LOG4 macro for positive normal inputs; blocks holding any other lane
//     return early, like digammaBlock's, for the scalar math.Log.
//   - digammaBlock runs LOG4 for the x >= 6 asymptotic region (always
//     normal positive there), and runs the ψ(x) = ψ(x+1) - 1/x recurrence
//     with masked lane updates: inactive lanes subtract/add +0.0, which is
//     a bit-exact identity. Blocks
//     containing a special lane (x <= 0, NaN, +Inf) make the routine return
//     early with the element count processed so far; the Go wrapper handles
//     those four elements with the scalar Digamma and resumes.
//
// Operand-order discipline: where a scalar reference op is not exactly
// commutative in its bit effects (NaN payload selection for add/sub/mul,
// value selection for max), the vector instruction keeps the same src1 as
// the scalar code. See fmax in kernels.go for the max convention.

#include "textflag.h"

#define expcHALF expc<>+0(SB)
#define expcONE expc<>+32(SB)
#define expcTWO expc<>+64(SB)
#define expcT6 expc<>+96(SB)
#define expcT5 expc<>+128(SB)
#define expcT4 expc<>+160(SB)
#define expcT3 expc<>+192(SB)
#define expcT2 expc<>+224(SB)
#define expcT1 expc<>+256(SB)
#define expcLOG2E expc<>+288(SB)
#define expcLN2U expc<>+320(SB)
#define expcLN2L expc<>+352(SB)
#define expcSIXT expc<>+384(SB)
#define expcOVF expc<>+416(SB)
#define expcPOSINF expc<>+448(SB)
#define expcNEGINF expc<>+480(SB)
#define expcABSMASK expc<>+512(SB)
#define expcNFTHRESH expc<>+544(SB)
#define expcMINNORM expc<>+576(SB)

#define digcSIX digc<>+0(SB)
#define digcONE digc<>+32(SB)
#define digcTWO digc<>+64(SB)
#define digcHALF digc<>+96(SB)
#define digcC1 digc<>+128(SB)
#define digcC2 digc<>+160(SB)
#define digcC3 digc<>+192(SB)
#define digcC4 digc<>+224(SB)
#define digcC5 digc<>+256(SB)
#define digcB691 digc<>+288(SB)
#define digcB32760 digc<>+320(SB)
#define digcPOSINF digc<>+352(SB)
#define digcMANTMASK digc<>+384(SB)
#define digcMAGIC digc<>+416(SB)
#define digcC1022 digc<>+448(SB)
#define digcHSQRT2 digc<>+480(SB)
#define digcL1 digc<>+512(SB)
#define digcL2 digc<>+544(SB)
#define digcL3 digc<>+576(SB)
#define digcL4 digc<>+608(SB)
#define digcL5 digc<>+640(SB)
#define digcL6 digc<>+672(SB)
#define digcL7 digc<>+704(SB)
#define digcLN2HI digc<>+736(SB)
#define digcLN2LO digc<>+768(SB)

#define intcD3FF intc<>+0(SB)
#define intcDONE intc<>+16(SB)
#define intcD7FE intc<>+32(SB)
#define intcDNEG52 intc<>+48(SB)
#define intcD3FE intc<>+64(SB)

// EXP4 computes Y1 = math.Exp(Y1) on four lanes: math.archExp's AVX/FMA
// path (exp_amd64.s, useFMA variant) replicated lane-parallel, including
// the fused final x*(x+2)+1 step, ldexp's two-multiply denormal path and
// every special case (overflow, underflow, ±Inf, NaN), so no lane needs a
// scalar fallback. Requires FMA. Clobbers Y2-Y13 (X registers included).
#define EXP4 \
	VMOVAPD Y1, Y8 /* keep original r for the special-case blends */ \
	/* k = int32(round(LOG2E * r)); kf = float64(k) */ \
	VMULPD expcLOG2E, Y1, Y2 \
	VCVTPD2DQY Y2, X3 /* round-to-nearest, like CVTSD2SL */ \
	VCVTDQ2PD X3, Y2 \
	/* r -= kf*LN2U; r -= kf*LN2L (fused, exactly like archExp's avxfma) */ \
	VFNMADD231PD expcLN2U, Y2, Y1 \
	VFNMADD231PD expcLN2L, Y2, Y1 \
	VMULPD expcSIXT, Y1, Y1 /* r *= 0.0625 */ \
	/* Taylor series, FMA chain identical to archExp */ \
	VMOVUPD expcT1, Y4 \
	VFMADD213PD expcT2, Y1, Y4 \
	VFMADD213PD expcT3, Y1, Y4 \
	VFMADD213PD expcT4, Y1, Y4 \
	VFMADD213PD expcT5, Y1, Y4 \
	VFMADD213PD expcT6, Y1, Y4 \
	VFMADD213PD expcHALF, Y1, Y4 \
	VFMADD213PD expcONE, Y1, Y4 \
	VMULPD Y4, Y1, Y1 /* r *= poly, src1=r */ \
	/* Four squaring steps x = x*(x+2); the last is fused with +1.0 */ \
	VADDPD expcTWO, Y1, Y4 \
	VMULPD Y4, Y1, Y1 \
	VADDPD expcTWO, Y1, Y4 \
	VMULPD Y4, Y1, Y1 \
	VADDPD expcTWO, Y1, Y4 \
	VMULPD Y4, Y1, Y1 \
	VADDPD expcTWO, Y1, Y4 \
	VFMADD213PD expcONE, Y4, Y1 /* r = (r+2)*r + 1.0 (fused, like archExp) */ \
	/* ldexp: kb = k + 1023 */ \
	VPADDD intcD3FF, X3, X5 \
	VMOVDQU intcDONE, X6 \
	VPCMPGTD X5, X6, X6 /* den32 = (1 > kb)  <=> kb <= 0 */ \
	VMOVDQU intcDNEG52, X7 \
	VPCMPGTD X5, X7, X7 /* und32 = (-52 > kb) <=> kb < -52 */ \
	VPCMPGTD intcD7FE, X5, X9 /* ovf32 = kb > 0x7FE <=> kb >= 0x7FF */ \
	VMOVDQU intcD3FE, X10 \
	VPAND X6, X10, X10 /* adj = den ? 0x3FE : 0 */ \
	VPADDD X10, X5, X5 /* e1 = kb + adj */ \
	VPMOVSXDQ X5, Y10 \
	VPSLLQ $52, Y10, Y10 /* scale1 = 2^(e1-1023) bits */ \
	VPMOVSXDQ X6, Y6 /* den64 */ \
	VPMOVSXDQ X7, Y7 /* und64 */ \
	VPMOVSXDQ X9, Y9 /* ovf64 */ \
	VMOVUPD expcONE, Y11 \
	VMOVUPD expcMINNORM, Y12 \
	VBLENDVPD Y6, Y12, Y11, Y11 /* scale2 = den ? 2^-1022 : 1.0 */ \
	VMULPD Y10, Y1, Y1 /* y *= scale1, src1=y */ \
	VMULPD Y11, Y1, Y1 /* y *= scale2 (second rounding of the denormal path) */ \
	VANDNPD Y1, Y7, Y1 /* kb < -52: underflow to +0 */ \
	/* overflow to +Inf: via kb >= 0x7FF, and via r > Overflow (covers the */ \
	/* huge inputs whose int32 k wrapped) */ \
	VMOVUPD expcPOSINF, Y12 \
	VBLENDVPD Y9, Y12, Y1, Y1 \
	VCMPPD $0x0E, expcOVF, Y8, Y9 /* r > Overflow (GT_OS) */ \
	VBLENDVPD Y9, Y12, Y1, Y1 \
	/* NaN/±Inf input: return r itself... then -Inf: return +0 */ \
	VANDPD expcABSMASK, Y8, Y13 \
	VPCMPGTQ expcNFTHRESH, Y13, Y13 /* abs(r) >= +Inf bits */ \
	VBLENDVPD Y13, Y8, Y1, Y1 \
	VPCMPEQQ expcNEGINF, Y8, Y13 \
	VANDNPD Y1, Y13, Y1

// LOG4 computes Y9 = math.archLog(Y1) on four lanes whose inputs are
// positive normal numbers (the scalar routine's special-case branches are
// then unreachable). It mirrors log_amd64.s step for step, with the same
// src1 operands throughout. Requires Y13 = 1.0; clobbers Y2, Y3, Y10-Y12.
#define LOG4 \
	VANDPD digcMANTMASK, Y1, Y2 \
	VORPD digcHALF, Y2, Y2 /* f1 = frexp mantissa in [0.5, 1) */ \
	VPSRLQ $52, Y1, Y3 /* biased exponent (x > 0: no sign bit) */ \
	VPOR digcMAGIC, Y3, Y3 \
	VSUBPD digcMAGIC, Y3, Y3 /* float64(biased exponent), exact */ \
	VSUBPD digcC1022, Y3, Y3 /* k = e - 0x3FE, exact */ \
	VMOVUPD digcHSQRT2, Y10 \
	VCMPPD $5, Y2, Y10, Y10 /* NLT: !(HSqrt2 < f1), i.e. f1 <= sqrt2/2 */ \
	VANDPD Y10, Y13, Y10 /* adj = 1.0 or +0.0 */ \
	VSUBPD Y10, Y3, Y3 /* k -= adj, src1=k */ \
	VADDPD Y13, Y10, Y10 /* mult = adj + 1.0, src1=adj */ \
	VMULPD Y10, Y2, Y2 /* f1 *= mult, src1=f1 */ \
	VSUBPD Y13, Y2, Y2 /* f = f1 - 1, src1=f1 */ \
	VMOVUPD digcTWO, Y10 \
	VADDPD Y2, Y10, Y10 /* 2 + f, src1=2.0 */ \
	VDIVPD Y10, Y2, Y10 /* s = f/(2+f), src1=f */ \
	VMULPD Y10, Y10, Y11 /* s2, src1=s */ \
	VMULPD Y11, Y11, Y12 /* s4, src1=s2 */ \
	VMOVUPD digcL7, Y9 \
	VMULPD Y12, Y9, Y9 /* L7*s4, src1=L7 */ \
	VADDPD digcL5, Y9, Y9 \
	VMULPD Y12, Y9, Y9 \
	VADDPD digcL3, Y9, Y9 \
	VMULPD Y12, Y9, Y9 \
	VADDPD digcL1, Y9, Y9 \
	VMULPD Y9, Y11, Y11 /* t1 = s2*poly, src1=s2 */ \
	VMOVUPD digcL6, Y9 \
	VMULPD Y12, Y9, Y9 \
	VADDPD digcL4, Y9, Y9 \
	VMULPD Y12, Y9, Y9 \
	VADDPD digcL2, Y9, Y9 \
	VMULPD Y9, Y12, Y12 /* t2 = s4*poly, src1=s4 */ \
	VADDPD Y12, Y11, Y11 /* R = t1 + t2, src1=t1 */ \
	VMULPD digcHALF, Y2, Y9 /* 0.5*f */ \
	VMULPD Y2, Y9, Y9 /* hfsq = (0.5*f)*f, src1=0.5*f */ \
	VADDPD Y9, Y11, Y11 /* hfsq+R computed as R+hfsq, like the scalar asm */ \
	VMULPD Y11, Y10, Y10 /* s*(hfsq+R), src1=s */ \
	VMULPD digcLN2LO, Y3, Y11 /* k*Ln2Lo */ \
	VADDPD Y11, Y10, Y10 /* s*(hfsq+R) + k*Ln2Lo, src1=s*(hfsq+R) */ \
	VSUBPD Y10, Y9, Y9 /* hfsq - (...), src1=hfsq */ \
	VSUBPD Y2, Y9, Y9 /* (...) - f, src1=above */ \
	VMULPD digcLN2HI, Y3, Y3 /* k*Ln2Hi, src1=k */ \
	VSUBPD Y9, Y3, Y9 /* lg = k*Ln2Hi - (...), src1=k*Ln2Hi */

// func axpyAsm(a float64, x, y []float64)
// y[i] += a*x[i]; handles the whole slice including the tail.
TEXT ·axpyAsm(SB), NOSPLIT, $0-56
	MOVSD a+0(FP), X0
	VBROADCASTSD X0, Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
axpy4:
	CMPQ AX, DX
	JGE  axpytail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1        // a*x (two roundings with the add below: no FMA)
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2        // y + a*x, src1=y
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy4
axpytail:
	CMPQ AX, CX
	JGE  axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  axpytail
axpydone:
	VZEROUPPER
	RET

// func addScaledAsm(b, a float64, x, y []float64)
// y[i] = y[i]*b + a*x[i]; handles the whole slice including the tail.
TEXT ·addScaledAsm(SB), NOSPLIT, $0-64
	MOVSD b+0(FP), X0
	VBROADCASTSD X0, Y0
	MOVSD a+8(FP), X1
	VBROADCASTSD X1, Y1
	MOVQ x_base+16(FP), SI
	MOVQ x_len+24(FP), CX
	MOVQ y_base+40(FP), DI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
adds4:
	CMPQ AX, DX
	JGE  addstail
	VMOVUPD (DI)(AX*8), Y2
	VMULPD  Y0, Y2, Y2        // y*b, src1=y
	VMOVUPD (SI)(AX*8), Y3
	VMULPD  Y1, Y3, Y3        // a*x
	VADDPD  Y3, Y2, Y2        // (y*b) + (a*x), src1=y*b
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  adds4
addstail:
	CMPQ AX, CX
	JGE  addsdone
	VMOVSD (DI)(AX*8), X2
	VMULSD X0, X2, X2
	VMOVSD (SI)(AX*8), X3
	VMULSD X1, X3, X3
	VADDSD X3, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  addstail
addsdone:
	VZEROUPPER
	RET

// func fillAsm(v []float64, x float64)
TEXT ·fillAsm(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVSD x+24(FP), X0
	VBROADCASTSD X0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
fill4:
	CMPQ AX, DX
	JGE  filltail
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  fill4
filltail:
	CMPQ AX, CX
	JGE  filldone
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  filltail
filldone:
	VZEROUPPER
	RET

// func scaleAsm(v []float64, s float64)
TEXT ·scaleAsm(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVSD s+24(FP), X0
	VBROADCASTSD X0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
scale4:
	CMPQ AX, DX
	JGE  scaletail
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1        // v*s, src1=v
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  scale4
scaletail:
	CMPQ AX, CX
	JGE  scaledone
	VMOVSD (DI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  scaletail
scaledone:
	VZEROUPPER
	RET

// func sumBlockAsm(v []float64) float64
// len(v) must be a positive multiple of 4. Returns (s0+s2)+(s1+s3); the
// caller folds any tail in afterwards.
TEXT ·sumBlockAsm(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
sum4:
	VADDPD (SI)(AX*8), Y0, Y0 // lane accumulate, src1=acc
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  sum4
	VEXTRACTF128 $1, Y0, X1   // [s2, s3]
	VADDPD X1, X0, X0         // [s0+s2, s1+s3], src1=[s0,s1]
	VPERMILPD $1, X0, X1      // [s1+s3, s0+s2]
	VADDSD X1, X0, X0         // (s0+s2)+(s1+s3), src1=s0+s2
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func flooredDotBlockAsm(w, x []float64, floor float64) float64
// len must be a positive multiple of 4 (w and x equal length).
TEXT ·flooredDotBlockAsm(SB), NOSPLIT, $0-64
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	MOVQ x_base+24(FP), DI
	VBROADCASTSD floor+48(FP), Y3
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
fdot4:
	VMOVUPD (SI)(AX*8), Y1    // w
	VMOVUPD (DI)(AX*8), Y2    // x
	VMULPD  Y2, Y1, Y2        // w*x, src1=w
	VCMPPD  $0x0D, Y3, Y1, Y1 // mask = w >= floor (GE_OS: NaN -> false)
	VANDPD  Y1, Y2, Y2        // blend-to-zero: sub-floor lanes add +0.0
	VADDPD  Y2, Y0, Y0        // lane accumulate, src1=acc
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  fdot4
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+56(FP)
	RET

// func maxBlockAsm(v []float64) float64
// len(v) must be a positive multiple of 4. Lane update is MAXPD(x, m) —
// exactly the fmax(x, m) of the scalar reference — and the combine is
// fmax(fmax(m3,m1), fmax(m2,m0)).
TEXT ·maxBlockAsm(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	VBROADCASTSD expcNEGINF, Y0
	XORQ AX, AX
max4:
	VMOVUPD (SI)(AX*8), Y1
	VMAXPD Y0, Y1, Y0         // m = MAXPD(src1=x, src2=m) = fmax(x, m)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  max4
	VEXTRACTF128 $1, Y0, X1   // [m2, m3]
	VMAXPD X0, X1, X2         // [fmax(m2,m0), fmax(m3,m1)], src1=[m2,m3]
	VPERMILPD $1, X2, X3      // [fmax(m3,m1), ...]
	VMAXPD X2, X3, X0         // fmax(fmax(m3,m1), fmax(m2,m0)), src1 high pair
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func expSumBlockAsm(v []float64, maxv float64) float64
// len(v) must be a positive multiple of 4. Computes Σ exp(v[i]-maxv) with
// the canonical lane order; exp is math.archExp's AVX/FMA path replicated
// on four lanes (requires FMA — only registered when cpufeat reports it).
TEXT ·expSumBlockAsm(SB), NOSPLIT, $0-40
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	VBROADCASTSD maxv+24(FP), Y15
	VXORPS Y0, Y0, Y0         // acc
	XORQ AX, AX
exp4:
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD Y15, Y1, Y1        // r = v - maxv, src1=v
	EXP4

	VADDPD Y1, Y0, Y0         // acc += exp lanes, src1=acc
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  exp4

	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+32(FP)
	RET

// func digammaBlockAsm(x, dst []float64) int
// Processes whole 4-element blocks of dst[i] = ψ(x[i]) until the first
// block containing a lane outside the fast path (x <= 0, ±0, NaN, +Inf);
// returns the number of elements written. The fast path is the scalar
// Digamma's positive branch: the ψ(x)=ψ(x+1)-1/x recurrence up to x >= 6
// with masked lane updates, then the asymptotic series with math.archLog
// replicated on four lanes.
TEXT ·digammaBlockAsm(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	VMOVUPD digcONE, Y13
	VMOVUPD digcSIX, Y14
digblock:
	CMPQ AX, DX
	JGE  digdone
	VMOVUPD (SI)(AX*8), Y1    // x

	// fast-path mask: x > 0 and x != +Inf (NaN fails the compare)
	VXORPS Y2, Y2, Y2
	VCMPPD $0x0E, Y2, Y1, Y2  // x > 0 (GT_OS)
	VPCMPEQQ digcPOSINF, Y1, Y3
	VANDNPD Y2, Y3, Y2        // fast = ~(x == +Inf) & (x > 0)
	VMOVMSKPD Y2, BX
	CMPL BX, $0xF
	JNE  digdone              // special lane: caller handles this block

	// recurrence: result -= 1/x; x += 1 while x < 6, masked per lane
	// (inactive lanes subtract/add +0.0 — a bit-exact identity)
	VXORPS Y4, Y4, Y4         // result
	VCMPPD $0x01, Y14, Y1, Y2 // active = x < 6 (LT_OS)
	VMOVMSKPD Y2, BX
	TESTL BX, BX
	JE   digasym
digrec:
	VDIVPD Y1, Y13, Y5        // q = 1.0/x, src1=1.0
	VANDPD Y2, Y5, Y5
	VSUBPD Y5, Y4, Y4         // result -= q, src1=result
	VANDPD Y2, Y13, Y5        // step = active ? 1.0 : +0.0
	VADDPD Y5, Y1, Y1         // x += step, src1=x
	VCMPPD $0x01, Y14, Y1, Y2
	VMOVMSKPD Y2, BX
	TESTL BX, BX
	JNE  digrec
digasym:
	// inv = 1/x; inv2 = inv*inv
	VDIVPD Y1, Y13, Y5        // inv, src1=1.0
	VMULPD Y5, Y5, Y6         // inv2, src1=inv

	// series = inv2*(C1 - inv2*(C2 - inv2*(C3 - inv2*(C4 - inv2*(C5 -
	//          inv2*691.0/32760)))))   [inv2*691.0/32760 is (inv2*691)/32760]
	VMULPD digcB691, Y6, Y7   // t = inv2*691, src1=inv2
	VDIVPD digcB32760, Y7, Y7 // t /= 32760, src1=t
	VMOVUPD digcC5, Y8
	VSUBPD Y7, Y8, Y7         // C5 - t, src1=C5
	VMULPD Y7, Y6, Y7         // inv2 * t, src1=inv2
	VMOVUPD digcC4, Y8
	VSUBPD Y7, Y8, Y7
	VMULPD Y7, Y6, Y7
	VMOVUPD digcC3, Y8
	VSUBPD Y7, Y8, Y7
	VMULPD Y7, Y6, Y7
	VMOVUPD digcC2, Y8
	VSUBPD Y7, Y8, Y7
	VMULPD Y7, Y6, Y7
	VMOVUPD digcC1, Y8
	VSUBPD Y7, Y8, Y7
	VMULPD Y7, Y6, Y7         // series
	VMULPD digcHALF, Y5, Y8   // 0.5*inv

	// lg = archLog(x) on four lanes; x >= 6 here, always normal positive.
	LOG4

	// result = ((result + lg) - 0.5*inv) - series
	VADDPD Y9, Y4, Y4         // src1=result
	VSUBPD Y8, Y4, Y4         // src1=above
	VSUBPD Y7, Y4, Y4         // src1=above
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  digblock
digdone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func expBlockAsm(x, dst []float64)
// len(x) must be a positive multiple of 4 (dst at least as long). Writes
// dst[i] = math.Exp(x[i]) with EXP4; every lane, special or not, takes the
// vector path (requires FMA — only registered when cpufeat reports it).
TEXT ·expBlockAsm(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	XORQ AX, AX
expblock:
	VMOVUPD (SI)(AX*8), Y1
	EXP4
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  expblock
	VZEROUPPER
	RET

// func logBlockAsm(x, dst []float64) int
// Writes whole 4-element blocks of dst[i] = math.Log(x[i]) with LOG4 until
// the first block containing a lane outside the positive normal range
// (x < 2^-1022, ±0, negative, NaN, +Inf); returns the number of elements
// written. The Go wrapper evaluates that block with the scalar math.Log and
// resumes.
TEXT ·logBlockAsm(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	VMOVUPD digcONE, Y13
logblock:
	CMPQ AX, DX
	JGE  logdone
	VMOVUPD (SI)(AX*8), Y1

	// fast-path mask: x >= 2^-1022 and x != +Inf (NaN fails the compare)
	VCMPPD $0x0D, expcMINNORM, Y1, Y2 // x >= MinNormal (GE_OS)
	VPCMPEQQ digcPOSINF, Y1, Y3
	VANDNPD Y2, Y3, Y2        // fast = ~(x == +Inf) & (x >= MinNormal)
	VMOVMSKPD Y2, BX
	CMPL BX, $0xF
	JNE  logdone              // special lane: caller handles this block

	LOG4
	VMOVUPD Y9, (DI)(AX*8)
	ADDQ $4, AX
	JMP  logblock
logdone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
DATA expc<>+0(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA expc<>+8(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA expc<>+16(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA expc<>+24(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA expc<>+32(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA expc<>+40(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA expc<>+48(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA expc<>+56(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA expc<>+64(SB)/8, $0x4000000000000000 // TWO 2.0
DATA expc<>+72(SB)/8, $0x4000000000000000 // TWO 2.0
DATA expc<>+80(SB)/8, $0x4000000000000000 // TWO 2.0
DATA expc<>+88(SB)/8, $0x4000000000000000 // TWO 2.0
DATA expc<>+96(SB)/8, $0x3FC5555555555555 // T6
DATA expc<>+104(SB)/8, $0x3FC5555555555555 // T6
DATA expc<>+112(SB)/8, $0x3FC5555555555555 // T6
DATA expc<>+120(SB)/8, $0x3FC5555555555555 // T6
DATA expc<>+128(SB)/8, $0x3FA5555555555555 // T5
DATA expc<>+136(SB)/8, $0x3FA5555555555555 // T5
DATA expc<>+144(SB)/8, $0x3FA5555555555555 // T5
DATA expc<>+152(SB)/8, $0x3FA5555555555555 // T5
DATA expc<>+160(SB)/8, $0x3F81111111111111 // T4
DATA expc<>+168(SB)/8, $0x3F81111111111111 // T4
DATA expc<>+176(SB)/8, $0x3F81111111111111 // T4
DATA expc<>+184(SB)/8, $0x3F81111111111111 // T4
DATA expc<>+192(SB)/8, $0x3F56C16C16C16C17 // T3
DATA expc<>+200(SB)/8, $0x3F56C16C16C16C17 // T3
DATA expc<>+208(SB)/8, $0x3F56C16C16C16C17 // T3
DATA expc<>+216(SB)/8, $0x3F56C16C16C16C17 // T3
DATA expc<>+224(SB)/8, $0x3F2A01A01A01A01A // T2
DATA expc<>+232(SB)/8, $0x3F2A01A01A01A01A // T2
DATA expc<>+240(SB)/8, $0x3F2A01A01A01A01A // T2
DATA expc<>+248(SB)/8, $0x3F2A01A01A01A01A // T2
DATA expc<>+256(SB)/8, $0x3EFA01A01A01A01A // T1
DATA expc<>+264(SB)/8, $0x3EFA01A01A01A01A // T1
DATA expc<>+272(SB)/8, $0x3EFA01A01A01A01A // T1
DATA expc<>+280(SB)/8, $0x3EFA01A01A01A01A // T1
DATA expc<>+288(SB)/8, $0x3FF71547652B82FE // LOG2E
DATA expc<>+296(SB)/8, $0x3FF71547652B82FE // LOG2E
DATA expc<>+304(SB)/8, $0x3FF71547652B82FE // LOG2E
DATA expc<>+312(SB)/8, $0x3FF71547652B82FE // LOG2E
DATA expc<>+320(SB)/8, $0x3FE62E42FEFA3000 // LN2U
DATA expc<>+328(SB)/8, $0x3FE62E42FEFA3000 // LN2U
DATA expc<>+336(SB)/8, $0x3FE62E42FEFA3000 // LN2U
DATA expc<>+344(SB)/8, $0x3FE62E42FEFA3000 // LN2U
DATA expc<>+352(SB)/8, $0x3D53DE6AF278ECE6 // LN2L
DATA expc<>+360(SB)/8, $0x3D53DE6AF278ECE6 // LN2L
DATA expc<>+368(SB)/8, $0x3D53DE6AF278ECE6 // LN2L
DATA expc<>+376(SB)/8, $0x3D53DE6AF278ECE6 // LN2L
DATA expc<>+384(SB)/8, $0x3FB0000000000000 // SIXT 0.0625
DATA expc<>+392(SB)/8, $0x3FB0000000000000 // SIXT 0.0625
DATA expc<>+400(SB)/8, $0x3FB0000000000000 // SIXT 0.0625
DATA expc<>+408(SB)/8, $0x3FB0000000000000 // SIXT 0.0625
DATA expc<>+416(SB)/8, $0x40862E42FEFA39EF // OVF 709.78...
DATA expc<>+424(SB)/8, $0x40862E42FEFA39EF // OVF 709.78...
DATA expc<>+432(SB)/8, $0x40862E42FEFA39EF // OVF 709.78...
DATA expc<>+440(SB)/8, $0x40862E42FEFA39EF // OVF 709.78...
DATA expc<>+448(SB)/8, $0x7FF0000000000000 // POSINF
DATA expc<>+456(SB)/8, $0x7FF0000000000000 // POSINF
DATA expc<>+464(SB)/8, $0x7FF0000000000000 // POSINF
DATA expc<>+472(SB)/8, $0x7FF0000000000000 // POSINF
DATA expc<>+480(SB)/8, $0xFFF0000000000000 // NEGINF
DATA expc<>+488(SB)/8, $0xFFF0000000000000 // NEGINF
DATA expc<>+496(SB)/8, $0xFFF0000000000000 // NEGINF
DATA expc<>+504(SB)/8, $0xFFF0000000000000 // NEGINF
DATA expc<>+512(SB)/8, $0x7FFFFFFFFFFFFFFF // ABSMASK
DATA expc<>+520(SB)/8, $0x7FFFFFFFFFFFFFFF // ABSMASK
DATA expc<>+528(SB)/8, $0x7FFFFFFFFFFFFFFF // ABSMASK
DATA expc<>+536(SB)/8, $0x7FFFFFFFFFFFFFFF // ABSMASK
DATA expc<>+544(SB)/8, $0x7FEFFFFFFFFFFFFF // NFTHRESH
DATA expc<>+552(SB)/8, $0x7FEFFFFFFFFFFFFF // NFTHRESH
DATA expc<>+560(SB)/8, $0x7FEFFFFFFFFFFFFF // NFTHRESH
DATA expc<>+568(SB)/8, $0x7FEFFFFFFFFFFFFF // NFTHRESH
DATA expc<>+576(SB)/8, $0x0010000000000000 // MINNORM 2^-1022
DATA expc<>+584(SB)/8, $0x0010000000000000 // MINNORM 2^-1022
DATA expc<>+592(SB)/8, $0x0010000000000000 // MINNORM 2^-1022
DATA expc<>+600(SB)/8, $0x0010000000000000 // MINNORM 2^-1022
GLOBL expc<>(SB), RODATA|NOPTR, $608

DATA digc<>+0(SB)/8, $0x4018000000000000 // SIX 6.0
DATA digc<>+8(SB)/8, $0x4018000000000000 // SIX 6.0
DATA digc<>+16(SB)/8, $0x4018000000000000 // SIX 6.0
DATA digc<>+24(SB)/8, $0x4018000000000000 // SIX 6.0
DATA digc<>+32(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA digc<>+40(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA digc<>+48(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA digc<>+56(SB)/8, $0x3FF0000000000000 // ONE 1.0
DATA digc<>+64(SB)/8, $0x4000000000000000 // TWO 2.0
DATA digc<>+72(SB)/8, $0x4000000000000000 // TWO 2.0
DATA digc<>+80(SB)/8, $0x4000000000000000 // TWO 2.0
DATA digc<>+88(SB)/8, $0x4000000000000000 // TWO 2.0
DATA digc<>+96(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA digc<>+104(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA digc<>+112(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA digc<>+120(SB)/8, $0x3FE0000000000000 // HALF 0.5
DATA digc<>+128(SB)/8, $0x3FB5555555555555 // C1 1/12
DATA digc<>+136(SB)/8, $0x3FB5555555555555 // C1 1/12
DATA digc<>+144(SB)/8, $0x3FB5555555555555 // C1 1/12
DATA digc<>+152(SB)/8, $0x3FB5555555555555 // C1 1/12
DATA digc<>+160(SB)/8, $0x3F81111111111111 // C2 1/120
DATA digc<>+168(SB)/8, $0x3F81111111111111 // C2 1/120
DATA digc<>+176(SB)/8, $0x3F81111111111111 // C2 1/120
DATA digc<>+184(SB)/8, $0x3F81111111111111 // C2 1/120
DATA digc<>+192(SB)/8, $0x3F70410410410410 // C3 1/252
DATA digc<>+200(SB)/8, $0x3F70410410410410 // C3 1/252
DATA digc<>+208(SB)/8, $0x3F70410410410410 // C3 1/252
DATA digc<>+216(SB)/8, $0x3F70410410410410 // C3 1/252
DATA digc<>+224(SB)/8, $0x3F71111111111111 // C4 1/240
DATA digc<>+232(SB)/8, $0x3F71111111111111 // C4 1/240
DATA digc<>+240(SB)/8, $0x3F71111111111111 // C4 1/240
DATA digc<>+248(SB)/8, $0x3F71111111111111 // C4 1/240
DATA digc<>+256(SB)/8, $0x3F7F07C1F07C1F08 // C5 1/132
DATA digc<>+264(SB)/8, $0x3F7F07C1F07C1F08 // C5 1/132
DATA digc<>+272(SB)/8, $0x3F7F07C1F07C1F08 // C5 1/132
DATA digc<>+280(SB)/8, $0x3F7F07C1F07C1F08 // C5 1/132
DATA digc<>+288(SB)/8, $0x4085980000000000 // B691 691.0
DATA digc<>+296(SB)/8, $0x4085980000000000 // B691 691.0
DATA digc<>+304(SB)/8, $0x4085980000000000 // B691 691.0
DATA digc<>+312(SB)/8, $0x4085980000000000 // B691 691.0
DATA digc<>+320(SB)/8, $0x40DFFE0000000000 // B32760 32760.0
DATA digc<>+328(SB)/8, $0x40DFFE0000000000 // B32760 32760.0
DATA digc<>+336(SB)/8, $0x40DFFE0000000000 // B32760 32760.0
DATA digc<>+344(SB)/8, $0x40DFFE0000000000 // B32760 32760.0
DATA digc<>+352(SB)/8, $0x7FF0000000000000 // POSINF
DATA digc<>+360(SB)/8, $0x7FF0000000000000 // POSINF
DATA digc<>+368(SB)/8, $0x7FF0000000000000 // POSINF
DATA digc<>+376(SB)/8, $0x7FF0000000000000 // POSINF
DATA digc<>+384(SB)/8, $0x000FFFFFFFFFFFFF // MANTMASK
DATA digc<>+392(SB)/8, $0x000FFFFFFFFFFFFF // MANTMASK
DATA digc<>+400(SB)/8, $0x000FFFFFFFFFFFFF // MANTMASK
DATA digc<>+408(SB)/8, $0x000FFFFFFFFFFFFF // MANTMASK
DATA digc<>+416(SB)/8, $0x4330000000000000 // MAGIC 2^52
DATA digc<>+424(SB)/8, $0x4330000000000000 // MAGIC 2^52
DATA digc<>+432(SB)/8, $0x4330000000000000 // MAGIC 2^52
DATA digc<>+440(SB)/8, $0x4330000000000000 // MAGIC 2^52
DATA digc<>+448(SB)/8, $0x408FF00000000000 // C1022 1022.0
DATA digc<>+456(SB)/8, $0x408FF00000000000 // C1022 1022.0
DATA digc<>+464(SB)/8, $0x408FF00000000000 // C1022 1022.0
DATA digc<>+472(SB)/8, $0x408FF00000000000 // C1022 1022.0
DATA digc<>+480(SB)/8, $0x3FE6A09E667F3BCD // HSQRT2
DATA digc<>+488(SB)/8, $0x3FE6A09E667F3BCD // HSQRT2
DATA digc<>+496(SB)/8, $0x3FE6A09E667F3BCD // HSQRT2
DATA digc<>+504(SB)/8, $0x3FE6A09E667F3BCD // HSQRT2
DATA digc<>+512(SB)/8, $0x3FE5555555555593 // L1
DATA digc<>+520(SB)/8, $0x3FE5555555555593 // L1
DATA digc<>+528(SB)/8, $0x3FE5555555555593 // L1
DATA digc<>+536(SB)/8, $0x3FE5555555555593 // L1
DATA digc<>+544(SB)/8, $0x3FD999999997FA04 // L2
DATA digc<>+552(SB)/8, $0x3FD999999997FA04 // L2
DATA digc<>+560(SB)/8, $0x3FD999999997FA04 // L2
DATA digc<>+568(SB)/8, $0x3FD999999997FA04 // L2
DATA digc<>+576(SB)/8, $0x3FD2492494229359 // L3
DATA digc<>+584(SB)/8, $0x3FD2492494229359 // L3
DATA digc<>+592(SB)/8, $0x3FD2492494229359 // L3
DATA digc<>+600(SB)/8, $0x3FD2492494229359 // L3
DATA digc<>+608(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA digc<>+616(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA digc<>+624(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA digc<>+632(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA digc<>+640(SB)/8, $0x3FC7466496CB03DE // L5
DATA digc<>+648(SB)/8, $0x3FC7466496CB03DE // L5
DATA digc<>+656(SB)/8, $0x3FC7466496CB03DE // L5
DATA digc<>+664(SB)/8, $0x3FC7466496CB03DE // L5
DATA digc<>+672(SB)/8, $0x3FC39A09D078C69F // L6
DATA digc<>+680(SB)/8, $0x3FC39A09D078C69F // L6
DATA digc<>+688(SB)/8, $0x3FC39A09D078C69F // L6
DATA digc<>+696(SB)/8, $0x3FC39A09D078C69F // L6
DATA digc<>+704(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA digc<>+712(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA digc<>+720(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA digc<>+728(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA digc<>+736(SB)/8, $0x3FE62E42FEE00000 // LN2HI
DATA digc<>+744(SB)/8, $0x3FE62E42FEE00000 // LN2HI
DATA digc<>+752(SB)/8, $0x3FE62E42FEE00000 // LN2HI
DATA digc<>+760(SB)/8, $0x3FE62E42FEE00000 // LN2HI
DATA digc<>+768(SB)/8, $0x3DEA39EF35793C76 // LN2LO
DATA digc<>+776(SB)/8, $0x3DEA39EF35793C76 // LN2LO
DATA digc<>+784(SB)/8, $0x3DEA39EF35793C76 // LN2LO
DATA digc<>+792(SB)/8, $0x3DEA39EF35793C76 // LN2LO
GLOBL digc<>(SB), RODATA|NOPTR, $800

DATA intc<>+0(SB)/8, $0x000003FF000003FF // D3FF 1023
DATA intc<>+8(SB)/8, $0x000003FF000003FF // D3FF 1023
DATA intc<>+16(SB)/8, $0x0000000100000001 // DONE 1
DATA intc<>+24(SB)/8, $0x0000000100000001 // DONE 1
DATA intc<>+32(SB)/8, $0x000007FE000007FE // D7FE 2046
DATA intc<>+40(SB)/8, $0x000007FE000007FE // D7FE 2046
DATA intc<>+48(SB)/8, $0xFFFFFFCCFFFFFFCC // DNEG52 -52
DATA intc<>+56(SB)/8, $0xFFFFFFCCFFFFFFCC // DNEG52 -52
DATA intc<>+64(SB)/8, $0x000003FE000003FE // D3FE 1022
DATA intc<>+72(SB)/8, $0x000003FE000003FE // D3FE 1022
GLOBL intc<>(SB), RODATA|NOPTR, $80

// func addStridedAsm(dst, src []float64, stride int)
// dst[i] += src[i*stride] — the panel-fill gather. Element-wise (no
// cross-element accumulation), so the 4-lane gather + VADDPD is
// bit-identical to the scalar loop. Handles the whole slice incl. tail.
// stride == 1 (transposed-cube panel fills) takes a contiguous path:
// full-width VMOVUPD loads instead of four scalar gathers.
TEXT ·addStridedAsm(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), R8
	CMPQ R8, $1
	JE   addcontig
	SHLQ $3, R8               // stride in bytes
	LEAQ (R8)(R8*1), R9       // 2·stride
	LEAQ (R9)(R8*1), R10      // 3·stride
	LEAQ (R9)(R9*1), R11      // 4·stride
	MOVQ CX, DX
	ANDQ $-4, DX
addstr4:
	CMPQ DX, $4
	JL   addstrtail
	VMOVSD (SI), X1
	VMOVSD (SI)(R8*1), X2
	VUNPCKLPD X2, X1, X1      // [s0, s1]
	VMOVSD (SI)(R9*1), X2
	VMOVSD (SI)(R10*1), X3
	VUNPCKLPD X3, X2, X2      // [s2, s3]
	VINSERTF128 $1, X2, Y1, Y1
	VADDPD (DI), Y1, Y1       // dst + gathered (payload-agnostic src1)
	VMOVUPD Y1, (DI)
	ADDQ R11, SI
	ADDQ $32, DI
	SUBQ $4, DX
	SUBQ $4, CX
	JMP  addstr4
addstrtail:
	TESTQ CX, CX
	JE   addstrdone
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ R8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  addstrtail
addstrdone:
	VZEROUPPER
	RET

addcontig:
	MOVQ CX, DX
	ANDQ $-4, DX
addcontig4:
	CMPQ DX, $4
	JL   addcontigtail
	VMOVUPD (SI), Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, DX
	SUBQ $4, CX
	JMP  addcontig4
addcontigtail:
	TESTQ CX, CX
	JE   addcontigdone
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  addcontigtail
addcontigdone:
	VZEROUPPER
	RET

// func mulStridedFloorAsm(dst, src []float64, stride int, floor float64)
// dst[i] *= max(src[i*stride], floor) — the product-panel gather. The
// MAXPD operand order (src1 = floor) reproduces the scalar clamp exactly:
// f > v ? f : v, with NaN v surviving (unordered compares select src2).
TEXT ·mulStridedFloorAsm(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), R8
	MOVSD floor+56(FP), X15
	VBROADCASTSD X15, Y15
	SHLQ $3, R8
	LEAQ (R8)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R9)(R9*1), R11
	MOVQ CX, DX
	ANDQ $-4, DX
mulstr4:
	CMPQ DX, $4
	JL   mulstrtail
	VMOVSD (SI), X1
	VMOVSD (SI)(R8*1), X2
	VUNPCKLPD X2, X1, X1
	VMOVSD (SI)(R9*1), X2
	VMOVSD (SI)(R10*1), X3
	VUNPCKLPD X3, X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMAXPD Y1, Y15, Y1        // max(v, floor), src1=floor
	VMULPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ R11, SI
	ADDQ $32, DI
	SUBQ $4, DX
	SUBQ $4, CX
	JMP  mulstr4
mulstrtail:
	TESTQ CX, CX
	JE   mulstrdone
	VMOVSD (SI), X1
	VMAXSD X1, X15, X1
	VMULSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ R8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  mulstrtail
mulstrdone:
	VZEROUPPER
	RET

// func axpyGatherSumAsm(a float64, src []float64, offs []int, y []float64)
// len(y) must be a positive multiple of 4; every offs[j]+len(y) <= len(src)
// (the exported wrapper validated). Per 4-lane group: the gather sum
// accumulates the offs runs in order from +0.0 (matching gatherSum's
// s := 0.0 — note +0.0 + -0.0 = +0.0 either way), then one VMULPD by a
// (src1=a, the scalar's a*s) and one VADDPD into y (src1=y, the scalar's
// y[i] + t). No FMA anywhere — two roundings, per the package contract.
TEXT ·axpyGatherSumAsm(SB), NOSPLIT, $0-80
	VBROADCASTSD a+0(FP), Y0
	MOVQ src_base+8(FP), SI
	MOVQ offs_base+32(FP), R12
	MOVQ offs_len+40(FP), R13
	MOVQ y_base+56(FP), DI
	MOVQ y_len+64(FP), CX
	SHLQ $3, CX               // end byte offset
	XORQ R15, R15             // i*8
ags4:
	VXORPS Y1, Y1, Y1         // gather sum, +0.0 lanes
	XORQ R14, R14
agsinner:
	CMPQ R14, R13
	JGE  agsmul
	MOVQ (R12)(R14*8), AX     // offs[j]
	SHLQ $3, AX
	ADDQ R15, AX              // byte offset of src[offs[j]+i]
	VADDPD (SI)(AX*1), Y1, Y1 // s += src[offs[j]+i], src1=acc
	INCQ R14
	JMP  agsinner
agsmul:
	VMULPD Y1, Y0, Y1         // a*s, src1=a
	VMOVUPD (DI)(R15*1), Y2
	VADDPD Y1, Y2, Y2         // y + a*s, src1=y
	VMOVUPD Y2, (DI)(R15*1)
	ADDQ $32, R15
	CMPQ R15, CX
	JLT  ags4
	VZEROUPPER
	RET

// func flooredDotGatherSumAsm(w, src []float64, offs []int, floor float64) float64
// len(w) must be a positive multiple of 4; every offs[j]+len(w) <= len(src).
// Same canonical 4-lane accumulation and (s0+s2)+(s1+s3) combine as
// flooredDotBlockAsm, with the gather sum in x's role. Fully-floored lane
// groups (VPTEST on the mask) skip the gather entirely and add an explicit
// +0.0 vector — bit-identical to four blended-to-zero lanes, and the reason
// this kernel keeps the scalar fallback's floor-driven sparsity: near-one-hot
// κ rows cost one compare per group, not |offs| adds.
TEXT ·flooredDotGatherSumAsm(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), BX
	MOVQ w_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ offs_base+48(FP), R12
	MOVQ offs_len+56(FP), R13
	VBROADCASTSD floor+72(FP), Y3
	VXORPS Y0, Y0, Y0         // lane accumulators
	SHLQ $3, CX
	XORQ R15, R15             // i*8
fdgs4:
	VMOVUPD (BX)(R15*1), Y1   // w
	VCMPPD  $0x0D, Y3, Y1, Y4 // mask = w >= floor (GE_OS: NaN -> false)
	VXORPS  Y2, Y2, Y2        // products: +0.0 until proven otherwise
	VPTEST  Y4, Y4
	JE      fdgsadd           // all four lanes floored: add the +0.0s
	XORQ R14, R14
fdgsinner:
	CMPQ R14, R13
	JGE  fdgsblend
	MOVQ (R12)(R14*8), AX
	SHLQ $3, AX
	ADDQ R15, AX
	VADDPD (SI)(AX*1), Y2, Y2 // s += src[offs[j]+i], src1=acc
	INCQ R14
	JMP  fdgsinner
fdgsblend:
	VMULPD Y2, Y1, Y2         // w*s, src1=w
	VANDPD Y4, Y2, Y2         // blend-to-zero: floored lanes add +0.0
fdgsadd:
	VADDPD Y2, Y0, Y0         // lane accumulate, src1=acc
	ADDQ $32, R15
	CMPQ R15, CX
	JLT  fdgs4
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+80(FP)
	RET

// func flooredDotGatherSumGroupsAsm(w, src []float64, offs []int, groups []int32, floor float64) float64
// The groups-restricted form of flooredDotGatherSumAsm: only the listed
// 4-lane groups of w's 4-aligned prefix are visited (the caller's
// FloorGroups scan found the rest fully floored; omitting their +0.0 adds
// is bit-neutral — see the Go wrapper's contract). Same per-group body and
// (s0+s2)+(s1+s3) combine as flooredDotGatherSumAsm.
TEXT ·flooredDotGatherSumGroupsAsm(SB), NOSPLIT, $0-112
	MOVQ w_base+0(FP), BX
	MOVQ src_base+24(FP), SI
	MOVQ offs_base+48(FP), R12
	MOVQ offs_len+56(FP), R13
	MOVQ groups_base+72(FP), R10
	MOVQ groups_len+80(FP), R11
	VBROADCASTSD floor+96(FP), Y3
	VXORPS Y0, Y0, Y0         // lane accumulators
	XORQ R9, R9               // index into groups
fdgg:
	CMPQ R9, R11
	JGE  fdggdone
	MOVLQSX (R10)(R9*4), AX   // g
	SHLQ $5, AX               // byte offset of w[4g]
	VMOVUPD (BX)(AX*1), Y1    // w group
	VCMPPD  $0x0D, Y3, Y1, Y4 // mask = w >= floor (GE_OS: NaN -> false)
	VXORPS  Y2, Y2, Y2        // products: +0.0 until proven otherwise
	VPTEST  Y4, Y4
	JE      fdggadd           // caller listed a fully-floored group: +0.0s
	MOVQ AX, R15              // i*8
	XORQ R14, R14
fdgginner:
	CMPQ R14, R13
	JGE  fdggblend
	MOVQ (R12)(R14*8), DX
	SHLQ $3, DX
	ADDQ R15, DX
	VADDPD (SI)(DX*1), Y2, Y2 // s += src[offs[j]+i], src1=acc
	INCQ R14
	JMP  fdgginner
fdggblend:
	VMULPD Y2, Y1, Y2         // w*s, src1=w
	VANDPD Y4, Y2, Y2         // blend-to-zero: floored lanes add +0.0
fdggadd:
	VADDPD Y2, Y0, Y0         // lane accumulate, src1=acc
	INCQ R9
	JMP  fdgg
fdggdone:
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+104(FP)
	RET

