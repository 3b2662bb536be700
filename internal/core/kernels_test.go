package core

import (
	"math"
	"testing"

	"cpa/internal/mathx"
)

// TestScorePhiSparseRowsMatchFlooredDot referees scorePhiRefs' sparse-row
// fast path (sparseSurvivors + sparseDot) against mathx.FlooredDot on every
// registered backend. Rows of every length 1–13 place their one or two
// survivors in every position — the same 4-lane group, different groups,
// the unaligned tail — at exactly respFloor or above it, with every other
// entry just under the floor, and panel entries that are ±0, subnormal,
// huge, or cancel each other, so a lone −0 product and an exact +0 sum
// are both exercised.
func TestScorePhiSparseRowsMatchFlooredDot(t *testing.T) {
	defer func(name string) {
		if err := mathx.ForceBackend(name); err != nil {
			t.Fatal(err)
		}
	}(mathx.ActiveBackend())
	negZero := math.Copysign(0, -1)
	below := math.Nextafter(respFloor, 0)
	kappas := []float64{respFloor, 0.5, 1, 3e-3}
	// Each pair is (x_a, x_b) for the one or two survivors.
	panels := [][2]float64{
		{0, 0}, {negZero, negZero}, {negZero, 0}, {0, negZero},
		{-1.25, 1.25}, {-7.1, -0.3}, {5e-324, -5e-324}, {1e300, 1e300},
		{-1e300, 3.7}, {negZero, -2.5}, {1 / 3.0, 2 / 3.0},
	}
	for _, backend := range mathx.Backends() {
		if err := mathx.ForceBackend(backend); err != nil {
			t.Fatal(err)
		}
		checked := 0
		for M := 1; M <= 13; M++ {
			w, x := make([]float64, M), make([]float64, M)
			for a := -1; a < M; a++ {
				for b := a + 1; b < M; b++ {
					if a < 0 && b > 0 {
						break // the single-survivor rows are b with a = -1
					}
					for ki, ka := range kappas {
						kb := kappas[(ki+1)%len(kappas)]
						for _, px := range panels {
							for i := range w {
								// Floored entries: just under the floor, 0,
								// or −0, each with a live panel entry.
								w[i] = [3]float64{below, 0, negZero}[i%3]
								x[i] = float64(i) - 2.5
							}
							lone := a < 0
							if lone {
								w[b], x[b] = ka, px[0]
							} else {
								w[a], x[a] = ka, px[0]
								w[b], x[b] = kb, px[1]
							}
							sa, sb, n := sparseSurvivors(w)
							if want := 2; lone {
								want = 1
								if n != want || sa != b {
									t.Fatalf("M=%d: sparseSurvivors(%v) = %d,%d,%d, want the lone survivor %d", M, w, sa, sb, n, b)
								}
							} else if n != want || sa != a || sb != b {
								t.Fatalf("M=%d: sparseSurvivors(%v) = %d,%d,%d, want %d,%d,2", M, w, sa, sb, n, a, b)
							}
							got := sparseDot(w, x, sa, sb, n)
							want := mathx.FlooredDot(w, x, respFloor)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s M=%d a=%d b=%d: sparseDot(%v, %v) = %v (%#x), FlooredDot = %v (%#x)",
									backend, M, a, b, w, x, got, math.Float64bits(got), want, math.Float64bits(want))
							}
							checked++
						}
					}
				}
			}
			// No survivor: +0, like FlooredDot's all-floored row.
			for i := range w {
				w[i], x[i] = below, negZero
			}
			if _, _, n := sparseSurvivors(w); n != 0 {
				t.Fatalf("M=%d: all-floored row reports %d survivors", M, n)
			}
			if got, want := sparseDot(w, x, 0, 0, 0), mathx.FlooredDot(w, x, respFloor); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s M=%d: empty sparseDot = %v, FlooredDot = %v", backend, M, got, want)
			}
		}
		if checked == 0 {
			t.Fatal("no rows checked")
		}
	}
	// A third survivor sends the row back to FlooredDot.
	dense := []float64{respFloor, 0, 0.2, 0, 0.7, 0.1}
	if _, _, n := sparseSurvivors(dense); n != 3 {
		t.Fatalf("sparseSurvivors(%v) n = %d, want 3", dense, n)
	}
}
