package mathx

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"cpa/internal/cpufeat"
)

// puregoBuild reports whether the purego build tag is set
// (purego_test.go).
var puregoBuild bool

// TestBackendRegistry pins what dispatch registers and selects: scalar
// always, plus avx2 exactly when the build is amd64 without purego and the
// CPU has AVX2; the init-selected backend is the most specific of them.
func TestBackendRegistry(t *testing.T) {
	simd := runtime.GOARCH == "amd64" && !puregoBuild
	want := []string{"scalar"}
	if simd && cpufeat.X86.HasAVX2 {
		want = []string{"avx2", "scalar"}
	}
	if got := Backends(); !slices.Equal(got, want) {
		t.Fatalf("Backends() = %v, want %v (GOARCH=%s purego=%v cpu=%s)",
			got, want, runtime.GOARCH, puregoBuild, cpufeat.Summary())
	}
	// Every other test restores the backend it forced, so the active one is
	// still init's choice.
	if got, want := ActiveBackend(), want[0]; got != want {
		t.Fatalf("ActiveBackend() = %q, want the most specific backend %q", got, want)
	}
	if !simd && cpufeat.Summary() != "none" {
		t.Fatalf("cpufeat.Summary() = %q without amd64 assembly, want none", cpufeat.Summary())
	}
}

// TestCPUFeatureSummary checks that cpufeat.Summary lists exactly the set
// flags, in avx,avx2,fma order, or "none" when no flag is set.
func TestCPUFeatureSummary(t *testing.T) {
	saved := cpufeat.X86
	defer func() { cpufeat.X86 = saved }()
	for mask := 0; mask < 8; mask++ {
		cpufeat.X86.HasAVX = mask&1 != 0
		cpufeat.X86.HasAVX2 = mask&2 != 0
		cpufeat.X86.HasFMA = mask&4 != 0
		var fs []string
		for i, name := range []string{"avx", "avx2", "fma"} {
			if mask&(1<<i) != 0 {
				fs = append(fs, name)
			}
		}
		want := strings.Join(fs, ",")
		if want == "" {
			want = "none"
		}
		if got := cpufeat.Summary(); got != want {
			t.Fatalf("flags %03b: Summary() = %q, want %q", mask, got, want)
		}
	}
}
