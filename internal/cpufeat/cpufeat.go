// Package cpufeat detects, once at init, the CPU vector-instruction
// features the AVX2 kernel backend in internal/mathx keys its dispatch
// on. It is a hand-rolled, dependency-free stand-in for golang.org/x/sys/cpu
// (the module is std-lib-only by policy): on amd64 it executes CPUID and
// XGETBV directly (cpuid_amd64.s) and requires both the CPU flag and the
// OS-enabled YMM state before advertising AVX.
//
// On every other architecture, and under the purego build tag, every
// feature reads false and the kernels run the portable scalar reference.
package cpufeat

import "strings"

// X86 holds the amd64 feature flags the kernel dispatch consults. All
// fields are false on other architectures and under the purego tag.
var X86 struct {
	HasAVX  bool // AVX with OS-enabled YMM state (XGETBV xcr0[2:1] = 11)
	HasAVX2 bool
	HasFMA  bool
}

// Summary returns a short comma-separated list of the detected features,
// e.g. "avx,avx2,fma", or "none" when nothing beyond baseline scalar is
// available (other architectures, purego builds, or old CPUs). It is
// recorded in bench envelopes so perf artifacts are comparable across
// machines.
func Summary() string {
	var fs []string
	if X86.HasAVX {
		fs = append(fs, "avx")
	}
	if X86.HasAVX2 {
		fs = append(fs, "avx2")
	}
	if X86.HasFMA {
		fs = append(fs, "fma")
	}
	if len(fs) == 0 {
		return "none"
	}
	return strings.Join(fs, ",")
}
