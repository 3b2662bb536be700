package mathx

import (
	"fmt"
	"os"
	"sort"
)

// Runtime kernel dispatch. Each backend is a full set of the kernel entry
// points; the best available one is selected once at package init
// from the detected CPU features (internal/cpufeat), so steady-state calls
// pay one function-pointer indirection and zero branching. The scalar
// reference backend is always registered and always available — it is the
// specification the SIMD backends are tested against, and the only backend
// compiled under the purego build tag.
//
// Selection order at init: the CPA_SIMD environment variable when set
// ("scalar", "avx2", "neon", or "auto"), otherwise the most specific
// backend the CPU supports. ForceBackend re-selects at runtime — it exists
// for the equivalence tests and for cpabench's -simd flag, and must not be
// called concurrently with kernel use (kernel calls are lock-free).

// kernelImpl is one backend's kernel table. Implementations receive
// pre-clamped, non-empty, equal-length slices from the exported wrappers.
type kernelImpl struct {
	name            string
	axpy            func(a float64, x, y []float64)
	addScaled       func(b, a float64, x, y []float64)
	fill            func(v []float64, x float64)
	scale           func(v []float64, s float64)
	sum             func(v []float64) float64
	flooredDot      func(w, x []float64, floor float64) float64
	digammaRow      func(x, dst []float64)
	logRow          func(x, dst []float64)
	expRow          func(x, dst []float64)
	logSumExp       func(v []float64) float64
	addStrided      func(dst, src []float64, stride int)
	mulStridedFloor func(dst, src []float64, stride int, floor float64)

	axpyGatherSum             func(a float64, src []float64, offs []int, y []float64)
	flooredDotGatherSum       func(w, src []float64, offs []int, floor float64) float64
	flooredDotGatherSumGroups func(w, src []float64, offs []int, groups []int32, floor float64) float64
}

var scalarImpl = kernelImpl{
	name:            "scalar",
	axpy:            axpyScalar,
	addScaled:       addScaledScalar,
	fill:            fillScalar,
	scale:           scaleScalar,
	sum:             sumScalar,
	flooredDot:      flooredDotScalar,
	digammaRow:      digammaRowScalar,
	logRow:          logRowScalar,
	expRow:          expRowScalar,
	logSumExp:       logSumExpScalar,
	addStrided:      addStridedScalar,
	mulStridedFloor: mulStridedFloorScalar,

	axpyGatherSum:             axpyGatherSumScalar,
	flooredDotGatherSum:       flooredDotGatherSumScalar,
	flooredDotGatherSumGroups: flooredDotGatherSumGroupsScalar,
}

// backends holds every backend usable on this CPU, "scalar" first. The
// per-architecture register functions append to it at init.
var backends = []kernelImpl{scalarImpl}

// active is the dispatched backend. Reads are unsynchronised by design.
var active = &backends[0]

func init() {
	registerSIMDBackends()
	choice := os.Getenv("CPA_SIMD")
	if choice == "" || choice == "auto" {
		// Most specific wins: register functions append in ascending
		// preference order.
		active = &backends[len(backends)-1]
		return
	}
	if err := ForceBackend(choice); err != nil {
		fmt.Fprintf(os.Stderr, "cpa: ignoring CPA_SIMD=%q: %v\n", choice, err)
		active = &backends[len(backends)-1]
	}
}

// ForceBackend selects the named kernel backend ("scalar", "avx2", …).
// It returns an error if the backend is unknown or unsupported on this
// CPU. Not safe to call concurrently with kernel use; intended for tests
// and benchmark harnesses.
func ForceBackend(name string) error {
	for i := range backends {
		if backends[i].name == name {
			active = &backends[i]
			return nil
		}
	}
	return fmt.Errorf("mathx: no %q kernel backend on this CPU (have %v)", name, Backends())
}

// ActiveBackend returns the name of the backend kernels currently dispatch
// to — recorded in bench envelopes so perf artifacts say what they
// measured.
func ActiveBackend() string { return active.name }

// Backends lists every backend available on this CPU, sorted, "scalar"
// always included. The equivalence tests iterate this to pin SIMD ≡ scalar.
func Backends() []string {
	names := make([]string, len(backends))
	for i := range backends {
		names[i] = backends[i].name
	}
	sort.Strings(names)
	return names
}
