package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// The SIMD equivalence suite (ISSUE 6): every backend registered on this
// CPU must produce bit-identical results to the scalar reference for every
// kernel, at every length 0..130 (all tail shapes for every unroll width),
// on well-behaved data and on adversarial data — NaN, ±Inf, ±0, denormals,
// exact floor ties, and inputs that drive exp through its overflow,
// underflow, and denormal-ldexp windows.

// sameFloat is the contract's equality: identical bits, except that any
// NaN matches any NaN (payload and sign of NaNs are implementation-chosen
// even between two scalar runs — see the kernels.go contract).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// eqBits fails the test if a and b differ at any index.
func eqBits(t *testing.T, kernel string, n int, a, b []float64) {
	t.Helper()
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			t.Fatalf("%s: n=%d entry %d differs: %v (%#016x) vs %v (%#016x)",
				kernel, n, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

func eqBit(t *testing.T, kernel string, n int, a, b float64) {
	t.Helper()
	if !sameFloat(a, b) {
		t.Fatalf("%s: n=%d differs: %v (%#016x) vs %v (%#016x)",
			kernel, n, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

// specials are adversarial values sprinkled into test vectors.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
	1e308, -1e308, 1.0, -1.0,
}

// fillVec fills v with a mix of moderate random values and specials.
func fillVec(rng *rand.Rand, v []float64, specialEvery int) {
	for i := range v {
		if specialEvery > 0 && rng.Intn(specialEvery) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64() * 10
		}
	}
}

// forEachSIMDBackend runs f once per non-scalar backend with that backend
// forced, restoring the scalar backend afterwards.
func forEachSIMDBackend(t *testing.T, f func(t *testing.T, name string)) {
	t.Helper()
	names := Backends()
	restore := ActiveBackend()
	defer ForceBackend(restore)
	ran := false
	for _, name := range names {
		if name == "scalar" {
			continue
		}
		ran = true
		t.Run(name, func(t *testing.T) {
			f(t, name)
		})
	}
	if !ran {
		t.Log("no SIMD backend on this CPU; scalar-only run")
	}
}

func TestBackendEquivalenceElementwise(t *testing.T) {
	forEachSIMDBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(42))
		for n := 0; n <= 130; n++ {
			for trial := 0; trial < 4; trial++ {
				specialEvery := 0
				if trial >= 2 {
					specialEvery = 3
				}
				x := make([]float64, n)
				y := make([]float64, n)
				fillVec(rng, x, specialEvery)
				fillVec(rng, y, specialEvery)
				// The discarded draws keep every later input at the value
				// this seed has always given it.
				a := rng.NormFloat64() * 5
				rng.NormFloat64()
				if trial == 3 {
					a = specials[rng.Intn(len(specials))]
					rng.Intn(len(specials))
				}

				ys := append([]float64(nil), y...)
				yb := append([]float64(nil), y...)
				ForceBackend("scalar")
				Axpy(a, x, ys)
				ForceBackend(name)
				Axpy(a, x, yb)
				eqBits(t, "Axpy", n, ys, yb)

				ys = append(ys[:0], y...)
				yb = append(yb[:0], y...)
				ForceBackend("scalar")
				Scale(ys, a)
				ForceBackend(name)
				Scale(yb, a)
				eqBits(t, "Scale", n, ys, yb)

				ForceBackend("scalar")
				Fill(ys, a)
				ForceBackend(name)
				Fill(yb, a)
				eqBits(t, "Fill", n, ys, yb)
			}
		}
	})
}

func TestBackendEquivalenceReductions(t *testing.T) {
	forEachSIMDBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(43))
		for n := 0; n <= 130; n++ {
			for trial := 0; trial < 4; trial++ {
				specialEvery := 0
				if trial >= 2 {
					specialEvery = 3
				}
				w := make([]float64, n)
				x := make([]float64, n)
				fillVec(rng, w, specialEvery)
				fillVec(rng, x, specialEvery)

				ForceBackend("scalar")
				s1 := Sum(w)
				ForceBackend(name)
				s2 := Sum(w)
				eqBit(t, "Sum", n, s1, s2)

				// Floor edges: a value present in w (exact ties must
				// include), ±Inf, NaN, and signed zero floors.
				floors := []float64{0.5, math.Inf(-1), math.Inf(1), math.NaN(), 0.0, math.Copysign(0, -1)}
				if n > 0 {
					floors = append(floors, w[rng.Intn(n)])
				}
				for _, floor := range floors {
					ForceBackend("scalar")
					d1 := FlooredDot(w, x, floor)
					ForceBackend(name)
					d2 := FlooredDot(w, x, floor)
					eqBit(t, "FlooredDot", n, d1, d2)
				}
			}
		}
	})
}

// logSumExpCases builds vectors that push exp through every window of its
// ldexp: normal results, overflow (+Inf), underflow to 0 (d < -745.2), the
// denormal two-multiply window (d in about (-745.2, -708.4)), and special
// lanes.
func logSumExpCases(rng *rand.Rand, n int) [][]float64 {
	if n == 0 {
		return nil
	}
	cases := make([][]float64, 0, 8)
	mk := func(f func(i int) float64) {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		cases = append(cases, v)
	}
	mk(func(int) float64 { return rng.NormFloat64() * 10 })
	// Huge spread: max ~700, rest scattered down to the underflow region.
	mk(func(i int) float64 {
		if i == n/2 {
			return 700
		}
		return 700 - 800*rng.Float64()
	})
	// Denormal window: differences from the max in (-745, -708).
	mk(func(i int) float64 {
		if i == 0 {
			return 0
		}
		return -708 - 37*rng.Float64()
	})
	// Near-underflow boundary ±ulps around -745.13.
	mk(func(i int) float64 {
		return -745.133219101941108 + 0.01*rng.NormFloat64()
	})
	// All equal (exercise exp(0) lanes), all -Inf, specials sprinkled.
	mk(func(int) float64 { return 3.25 })
	mk(func(int) float64 { return math.Inf(-1) })
	mk(func(i int) float64 {
		if i%7 == 3 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * 200
	})
	// +Inf max lane: exp(x - +Inf) paths.
	mk(func(i int) float64 {
		if i == n-1 {
			return math.Inf(1)
		}
		return rng.NormFloat64()
	})
	return cases
}

func TestBackendEquivalenceLogSumExp(t *testing.T) {
	forEachSIMDBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(44))
		for n := 0; n <= 130; n++ {
			for _, v := range logSumExpCases(rng, n) {
				ForceBackend("scalar")
				l1 := LogSumExp(v)
				ForceBackend(name)
				l2 := LogSumExp(v)
				eqBit(t, "LogSumExp", n, l1, l2)
			}
		}
	})
}

// digammaCases covers the recurrence depth range (tiny through >= 6),
// Dirichlet-typical pseudo-counts, and special lanes at every block
// position: poles (0, negative integers), negative non-integers
// (reflection), NaN and +Inf.
func digammaCases(rng *rand.Rand, n int) [][]float64 {
	if n == 0 {
		return nil
	}
	cases := make([][]float64, 0, 6)
	mk := func(f func(i int) float64) {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		cases = append(cases, v)
	}
	mk(func(int) float64 { return math.Abs(rng.NormFloat64()*3) + 1e-3 })
	mk(func(int) float64 { return 6 + math.Abs(rng.NormFloat64()*1000) })
	mk(func(int) float64 { return rng.Float64() * 1e-6 })
	// One special lane per block, rotating position.
	sp := []float64{0, -1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), -0.0}
	mk(func(i int) float64 {
		if i%4 == (i/4)%4 {
			return sp[i%len(sp)]
		}
		return math.Abs(rng.NormFloat64()*10) + 0.01
	})
	// All special.
	mk(func(i int) float64 { return sp[i%len(sp)] })
	// Mixed magnitudes crossing the cutoff within single blocks.
	mk(func(i int) float64 {
		if i%2 == 0 {
			return 0.5 + rng.Float64()
		}
		return 50 + rng.Float64()*1e8
	})
	return cases
}

func TestBackendEquivalenceDigammaRow(t *testing.T) {
	forEachSIMDBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(45))
		for n := 0; n <= 130; n++ {
			for _, v := range digammaCases(rng, n) {
				d1 := make([]float64, n)
				d2 := make([]float64, n)
				ForceBackend("scalar")
				DigammaRow(v, d1)
				ForceBackend(name)
				DigammaRow(v, d2)
				eqBits(t, "DigammaRow", n, d1, d2)
			}
		}
	})
}

// TestDigammaRowMatchesDigamma pins the row kernel to the scalar Digamma
// element by element on the active backend, whatever it is — the property
// the λ-cube expectation refresh relies on.
func TestDigammaRowMatchesDigamma(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	x := make([]float64, 129)
	for i := range x {
		x[i] = math.Abs(rng.NormFloat64()*50) + 1e-4
	}
	dst := make([]float64, len(x))
	DigammaRow(x, dst)
	for i := range x {
		if !sameFloat(dst[i], Digamma(x[i])) {
			t.Fatalf("entry %d: DigammaRow %v vs Digamma %v", i, dst[i], Digamma(x[i]))
		}
	}
}

// TestAxpyMatchesScalarBitExact pins Axpy on the active backend to the
// plain loop y[i] += a*x[i], bit for bit, at every length 0–10.
func TestAxpyMatchesScalarBitExact(t *testing.T) {
	x := []float64{0.1, -2.5, 3.75, 1e-9, 4, 5, 6, 7, 8.125, -9}
	for n := 0; n <= len(x); n++ {
		want := make([]float64, n)
		got := make([]float64, n)
		for i := 0; i < n; i++ {
			want[i] = float64(i) * 0.3
			got[i] = want[i]
		}
		a := 1.7
		for i := 0; i < n; i++ {
			want[i] += a * x[i]
		}
		Axpy(a, x[:n], got)
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v (bit-exact)", n, i, got[i], want[i])
			}
		}
	}
}

// TestFlooredDotMatchesSkipLoop pins FlooredDot on the active backend to a
// loop that skips the entries under the floor.
func TestFlooredDotMatchesSkipLoop(t *testing.T) {
	w := []float64{0.5, 1e-12, 0.25, 0, 1e-8, 0.125, 0.3}
	x := []float64{2, 3, 4, 5, 6, 7, 8}
	const floor = 1e-8
	want := 0.0
	for i, wi := range w {
		if wi < floor {
			continue
		}
		want += wi * x[i]
	}
	if got := FlooredDot(w, x, floor); got != want {
		t.Errorf("FlooredDot = %v, want %v (bit-exact)", got, want)
	}
	if got := FlooredDot(nil, x, floor); got != 0 {
		t.Errorf("empty FlooredDot = %v, want 0", got)
	}
}

func TestForceBackend(t *testing.T) {
	restore := ActiveBackend()
	defer ForceBackend(restore)
	if err := ForceBackend("scalar"); err != nil {
		t.Fatalf("scalar backend must always exist: %v", err)
	}
	if got := ActiveBackend(); got != "scalar" {
		t.Fatalf("ActiveBackend = %q after forcing scalar", got)
	}
	if err := ForceBackend("no-such-backend"); err == nil {
		t.Fatal("expected error for unknown backend")
	}
	if got := ActiveBackend(); got != "scalar" {
		t.Fatalf("failed ForceBackend must not change the active backend; got %q", got)
	}
	names := Backends()
	found := false
	for _, n := range names {
		if n == "scalar" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Backends() = %v must include scalar", names)
	}
}

// bytesToFloats reinterprets fuzz bytes as float64s (little-endian),
// giving the fuzzer full bit-pattern coverage — NaN payloads included,
// which sameFloat's comparison makes safe.
func bytesToFloats(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		var u uint64
		for j := 0; j < 8; j++ {
			u |= uint64(b[i*8+j]) << (8 * j)
		}
		v[i] = math.Float64frombits(u)
	}
	return v
}

func FuzzFlooredDotEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0.5)
	f.Add(make([]byte, 8*9), math.Inf(-1))
	f.Fuzz(func(t *testing.T, raw []byte, floor float64) {
		v := bytesToFloats(raw)
		half := len(v) / 2
		w, x := v[:half], v[half:2*half]
		restore := ActiveBackend()
		defer ForceBackend(restore)
		ForceBackend("scalar")
		want := FlooredDot(w, x, floor)
		for _, name := range Backends() {
			ForceBackend(name)
			got := FlooredDot(w, x, floor)
			if !sameFloat(want, got) {
				t.Fatalf("backend %s: %v vs scalar %v", name, got, want)
			}
		}
	})
}

func FuzzLogSumExpEquivalence(f *testing.F) {
	f.Add(make([]byte, 8*13))
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := bytesToFloats(raw)
		restore := ActiveBackend()
		defer ForceBackend(restore)
		ForceBackend("scalar")
		want := LogSumExp(v)
		for _, name := range Backends() {
			ForceBackend(name)
			got := LogSumExp(v)
			if !sameFloat(want, got) {
				t.Fatalf("backend %s: %v vs scalar %v", name, got, want)
			}
		}
	})
}

func FuzzDigammaRowEquivalence(f *testing.F) {
	f.Add(make([]byte, 8*11))
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := bytesToFloats(raw)
		want := make([]float64, len(x))
		got := make([]float64, len(x))
		restore := ActiveBackend()
		defer ForceBackend(restore)
		ForceBackend("scalar")
		DigammaRow(x, want)
		for _, name := range Backends() {
			ForceBackend(name)
			DigammaRow(x, got)
			for i := range want {
				if !sameFloat(want[i], got[i]) {
					t.Fatalf("backend %s entry %d (x=%v): %v vs scalar %v",
						name, i, x[i], got[i], want[i])
				}
			}
		}
	})
}

func FuzzAxpyEquivalence(f *testing.F) {
	f.Add(make([]byte, 8*10), 2.5)
	f.Fuzz(func(t *testing.T, raw []byte, a float64) {
		v := bytesToFloats(raw)
		half := len(v) / 2
		x, y := v[:half], v[half:2*half]
		restore := ActiveBackend()
		defer ForceBackend(restore)
		want := append([]float64(nil), y...)
		ForceBackend("scalar")
		Axpy(a, x, want)
		for _, name := range Backends() {
			got := append([]float64(nil), y...)
			ForceBackend(name)
			Axpy(a, x, got)
			for i := range want {
				if !sameFloat(want[i], got[i]) {
					t.Fatalf("backend %s entry %d: %v vs scalar %v", name, i, got[i], want[i])
				}
			}
		}
	})
}
