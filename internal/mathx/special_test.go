package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

// euler is the Euler–Mascheroni constant γ = -ψ(1).
const euler = 0.57721566490153286060651209008240243104215933593992

func TestDigammaKnownValues(t *testing.T) {
	// Reference values computed with mpmath to 20 digits.
	cases := []struct {
		x, want float64
	}{
		{1, -euler},
		{0.5, -euler - 2*math.Ln2},
		{2, 1 - euler},
		{3, 1.5 - euler},
		{4, 1.0/3 + 1.5 - euler},
		{10, 2.2517525890667211076},
		{100, 4.6001618527380874002},
		{1e6, 13.815510057964274509},
		{0.1, -10.423754940411076795},
		{1e-4, -10000.577051183505},
	}
	for _, c := range cases {
		got := Digamma(c.x)
		tol := 1e-10 * math.Max(1, math.Abs(c.want))
		if !almostEqual(got, c.want, tol) {
			t.Errorf("Digamma(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestDigammaRecurrenceProperty(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x must hold for all positive x.
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if x < 1e-6 || x > 1e8 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		return almostEqual(lhs, rhs, 1e-9*math.Max(1, math.Abs(rhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDigammaReflection(t *testing.T) {
	// ψ(1-x) - ψ(x) = π·cot(πx) for non-integer x.
	for _, x := range []float64{-0.5, -1.5, -2.25, -7.75} {
		lhs := Digamma(1-x) - Digamma(x)
		rhs := math.Pi / math.Tan(math.Pi*x)
		if !almostEqual(lhs, rhs, 1e-8*math.Max(1, math.Abs(rhs))) {
			t.Errorf("reflection at %g: lhs=%g rhs=%g", x, lhs, rhs)
		}
	}
}

func TestDigammaPoles(t *testing.T) {
	for _, x := range []float64{0, -1, -2, -10} {
		if !math.IsNaN(Digamma(x)) {
			t.Errorf("Digamma(%g) should be NaN at a pole", x)
		}
	}
}

func TestDigammaMonotoneOnPositiveAxis(t *testing.T) {
	prev := Digamma(0.01)
	for x := 0.02; x < 50; x += 0.01 {
		cur := Digamma(x)
		if cur <= prev {
			t.Fatalf("Digamma not strictly increasing at x=%g: %g <= %g", x, cur, prev)
		}
		prev = cur
	}
}

func TestTrigammaKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{1, math.Pi * math.Pi / 6},
		{0.5, math.Pi * math.Pi / 2},
		{2, math.Pi*math.Pi/6 - 1},
		{10, 0.10516633568168575012},
	}
	for _, c := range cases {
		got := Trigamma(c.x)
		if !almostEqual(got, c.want, 1e-10*math.Max(1, c.want)) {
			t.Errorf("Trigamma(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestTrigammaIsDerivativeOfDigamma(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{0.3, 1, 2.5, 7, 42, 1000} {
		numeric := (Digamma(x+h) - Digamma(x-h)) / (2 * h)
		got := Trigamma(x)
		if !almostEqual(got, numeric, 1e-4*math.Max(1, math.Abs(numeric))) {
			t.Errorf("Trigamma(%g)=%g, numeric derivative %g", x, got, numeric)
		}
	}
}

func TestLogGammaAndLogBeta(t *testing.T) {
	if got := LogGamma(5); !almostEqual(got, math.Log(24), 1e-12) {
		t.Errorf("LogGamma(5) = %g, want ln 24", got)
	}
	// B(a,b) = Γ(a)Γ(b)/Γ(a+b); B(2,3) = 1/12.
	if got := LogBeta(2, 3); !almostEqual(got, math.Log(1.0/12), 1e-12) {
		t.Errorf("LogBeta(2,3) = %g, want ln 1/12", got)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %g, want -Inf", got)
	}
	v := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(v); !almostEqual(got, math.Log(6), 1e-12) {
		t.Errorf("LogSumExp = %g, want ln 6", got)
	}
	// Huge offsets must not overflow.
	v = []float64{1000, 1000 + math.Log(2)}
	if got := LogSumExp(v); !almostEqual(got, 1000+math.Log(3), 1e-9) {
		t.Errorf("LogSumExp with offset = %g", got)
	}
	allNegInf := []float64{math.Inf(-1), math.Inf(-1)}
	if got := LogSumExp(allNegInf); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(-Inf,-Inf) = %g, want -Inf", got)
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	v := []float64{math.Log(1), math.Log(2), math.Log(7)}
	SoftmaxInPlace(v)
	want := []float64{0.1, 0.2, 0.7}
	for i := range v {
		if !almostEqual(v[i], want[i], 1e-12) {
			t.Errorf("softmax[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	// Degenerate: all -Inf becomes uniform.
	v = []float64{math.Inf(-1), math.Inf(-1)}
	SoftmaxInPlace(v)
	if !almostEqual(v[0], 0.5, 1e-12) || !almostEqual(v[1], 0.5, 1e-12) {
		t.Errorf("softmax of -Inf vector = %v, want uniform", v)
	}
}

func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(raw [7]float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v = append(v, math.Mod(x, 700)) // keep exp in range
		}
		SoftmaxInPlace(v)
		s := 0.0
		for _, p := range v {
			if p < 0 || p > 1 {
				return false
			}
			s += p
		}
		return almostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeInPlace(t *testing.T) {
	v := []float64{1, 3}
	sum := NormalizeInPlace(v)
	if sum != 4 || !almostEqual(v[0], 0.25, 1e-15) || !almostEqual(v[1], 0.75, 1e-15) {
		t.Errorf("NormalizeInPlace = %v (sum %g)", v, sum)
	}
	z := []float64{0, 0, 0, 0}
	NormalizeInPlace(z)
	for _, x := range z {
		if !almostEqual(x, 0.25, 1e-15) {
			t.Errorf("zero vector should normalise to uniform, got %v", z)
		}
	}
}

func TestDotAndAXPY(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	v := []float64{1, 1, 1}
	Axpy(2, a, v)
	want := []float64{3, 5, 7}
	for i := range v {
		if v[i] != want[i] {
			t.Errorf("Axpy = %v, want %v", v, want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot should panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestArgMax(t *testing.T) {
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
	if got := ArgMax([]float64{1, 5, 5, 2}); got != 1 {
		t.Errorf("ArgMax tie should break low, got %d", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 2.5, 2}); got != 1 {
		t.Errorf("MaxAbsDiff = %g, want 1", got)
	}
}

func TestScaleFill(t *testing.T) {
	v := Fill(make([]float64, 3), 2)
	Scale(v, 3)
	for _, x := range v {
		if x != 6 {
			t.Errorf("Scale/Fill got %v", v)
		}
	}
}

func BenchmarkDigamma(b *testing.B) {
	x := 0.5
	for i := 0; i < b.N; i++ {
		x = 1 + math.Mod(Digamma(1+x)*Digamma(1+x), 10)
	}
	_ = x
}

func TestDigammaRowMatchesScalar(t *testing.T) {
	xs := []float64{1e-6, 0.1, 0.5, 1, 2.5, 7, 42, 1e6}
	dst := make([]float64, len(xs))
	DigammaRow(xs, dst)
	for i, x := range xs {
		if want := Digamma(x); dst[i] != want {
			t.Errorf("DigammaRow(%v) = %v, want %v (bit-exact)", x, dst[i], want)
		}
	}
	// Length mismatch: fills only the overlap, no panic.
	short := make([]float64, 3)
	DigammaRow(xs, short)
	for i := range short {
		if want := Digamma(xs[i]); short[i] != want {
			t.Errorf("short DigammaRow[%d] = %v, want %v", i, short[i], want)
		}
	}
}
