package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// LogRow and ExpRow promise bit-identity with a caller-side math.Log /
// math.Exp loop on every backend, so these tests compare against the math
// package directly, not against the scalar backend.

// logRowCases returns n-length inputs for LogRow: random normals over the
// whole positive exponent range, values near 1, and special lanes at
// rotating block positions (subnormals, ±0, negatives, NaN, ±Inf).
func logRowCases(rng *rand.Rand, n int) [][]float64 {
	sp := []float64{1e-300, 1, 5e-324, 1e-310, math.SmallestNonzeroFloat64 * 3,
		0, math.Copysign(0, -1), -1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1),
		2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64}
	mk := func(f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	return [][]float64{
		mk(func(int) float64 { return math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2044)-1021) }),
		mk(func(int) float64 { return math.Abs(rng.NormFloat64()) + 1e-300 }),
		mk(func(int) float64 { return 1 + (rng.Float64()-0.5)*1e-6 }),
		mk(func(i int) float64 {
			if i%4 == (i/4)%4 {
				return sp[i%len(sp)]
			}
			return math.Abs(rng.NormFloat64() * 100)
		}),
		mk(func(i int) float64 { return sp[i%len(sp)] }),
	}
}

// expRowCases returns n-length inputs for ExpRow: the sigmoid's working
// range, the overflow, underflow and subnormal-result windows, inputs large
// enough to wrap archExp's int32 exponent, and special lanes.
func expRowCases(rng *rand.Rand, n int) [][]float64 {
	sp := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, 5e-324, math.NaN(),
		math.Inf(1), math.Inf(-1), 709.782712893384, 709.79, -745.2, -708.5,
		1e10, -1e10, math.MaxFloat64, -math.MaxFloat64}
	mk := func(f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	return [][]float64{
		mk(func(int) float64 { return (rng.Float64()*2 - 1) * 30 }),
		mk(func(int) float64 { return rng.NormFloat64() * 300 }),
		mk(func(int) float64 { return 700 + rng.Float64()*15 }),
		mk(func(int) float64 { return -760 + rng.Float64()*60 }),
		mk(func(i int) float64 {
			if i%4 == (i/4)%4 {
				return sp[i%len(sp)]
			}
			return rng.NormFloat64() * 10
		}),
		mk(func(i int) float64 { return sp[i%len(sp)] }),
	}
}

// checkRow runs row on every backend, both into a fresh dst and in place,
// and compares each entry with ref.
func checkRow(t *testing.T, kernel string, x []float64, row func(x, dst []float64), ref func(float64) float64) {
	t.Helper()
	restore := ActiveBackend()
	defer ForceBackend(restore)
	for _, name := range Backends() {
		ForceBackend(name)
		dst := make([]float64, len(x))
		row(x, dst)
		inPlace := append([]float64(nil), x...)
		row(inPlace, inPlace)
		for i, v := range x {
			want := ref(v)
			if !sameFloat(dst[i], want) || !sameFloat(inPlace[i], want) {
				t.Fatalf("%s backend %s: n=%d entry %d (x=%v): got %v / in place %v, want %v",
					kernel, name, len(x), i, v, dst[i], inPlace[i], want)
			}
		}
	}
}

func TestLogRowMatchesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 0; n <= 67; n++ {
		for _, x := range logRowCases(rng, n) {
			checkRow(t, "LogRow", x, LogRow, math.Log)
		}
	}
}

func TestExpRowMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for n := 0; n <= 67; n++ {
		for _, x := range expRowCases(rng, n) {
			checkRow(t, "ExpRow", x, ExpRow, math.Exp)
		}
	}
}

// TestLogRowShortDst pins the shorter-slice rule: entries past len(dst)
// are neither read into nor written.
func TestLogRowShortDst(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	dst := make([]float64, 9, 10)
	dst = append(dst, 42)[:9]
	LogRow(x, dst)
	ExpRow(x, dst)
	if got := dst[:10][9]; got != 42 {
		t.Fatalf("wrote past len(dst): %v", got)
	}
}

func FuzzLogRow(f *testing.F) {
	f.Add(make([]byte, 8*11))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkRow(t, "LogRow", bytesToFloats(raw), LogRow, math.Log)
	})
}

func FuzzExpRow(f *testing.F) {
	f.Add(make([]byte, 8*11))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkRow(t, "ExpRow", bytesToFloats(raw), ExpRow, math.Exp)
	})
}
