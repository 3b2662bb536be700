package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// Equivalence suite for the panel-layer kernels: the strided cube walks
// (AddStrided), the floored product (MulFloor) and the fused gather-sum kernels
// (AxpyGatherSum, FlooredDotGatherSumGroups). Same contract as
// kernels_test.go: every backend bit-identical to the scalar reference at
// every length 0..130, on well-behaved and adversarial data.

func TestBackendEquivalenceStrided(t *testing.T) {
	forEachSIMDBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(47))
		for n := 0; n <= 130; n++ {
			for _, stride := range []int{1, 2, 3, 7} {
				for trial := 0; trial < 3; trial++ {
					specialEvery := 0
					if trial >= 1 {
						specialEvery = 3
					}
					srcLen := 1
					if n > 0 {
						srcLen = (n-1)*stride + 1
					}
					src := make([]float64, srcLen)
					dst := make([]float64, n)
					fillVec(rng, src, specialEvery)
					fillVec(rng, dst, specialEvery)

					ds := append([]float64(nil), dst...)
					db := append([]float64(nil), dst...)
					ForceBackend("scalar")
					AddStrided(ds, src, stride)
					ForceBackend(name)
					AddStrided(db, src, stride)
					eqBits(t, "AddStrided", n, ds, db)

					// Floor edges: exact tie with a src value, ±Inf, NaN,
					// signed zeros, and the production floor.
					floors := []float64{1e-12, 0.0, math.Copysign(0, -1), math.Inf(-1), math.Inf(1), math.NaN()}
					if n > 0 {
						floors = append(floors, src[rng.Intn(srcLen)])
					}
					if stride != 1 {
						continue
					}
					for _, floor := range floors {
						ds = append(ds[:0], dst...)
						db = append(db[:0], dst...)
						ForceBackend("scalar")
						MulFloor(ds, src, floor)
						ForceBackend(name)
						MulFloor(db, src, floor)
						eqBits(t, "MulFloor", n, ds, db)
					}
				}
			}
		}
	})
}

// gatherCase builds a src plane of nOffs rows of length n (plus slack so
// offsets are non-trivial) and a shuffled offset per row — the shape the
// score kernels read the transposed ψ cube with.
func gatherCase(rng *rand.Rand, n, nOffs, specialEvery int) (src []float64, offs []int) {
	rowLen := n + rng.Intn(3)
	if rowLen == 0 {
		rowLen = 1
	}
	src = make([]float64, nOffs*rowLen+1)
	fillVec(rng, src, specialEvery)
	offs = make([]int, nOffs)
	perm := rng.Perm(nOffs)
	for j := range offs {
		off := perm[j] * rowLen
		if off+n > len(src) {
			off = len(src) - n
		}
		offs[j] = off
	}
	return src, offs
}

// allGroups lists every 4-element lane group of a length-n row, 0…n/4−1:
// FlooredDotGatherSumGroups over it is the full-row floored dot, which on
// the AVX2 backend takes the dense assembly path.
func allGroups(n int) []int32 {
	groups := make([]int32, n/4)
	for g := range groups {
		groups[g] = int32(g)
	}
	return groups
}

func TestBackendEquivalenceGatherSum(t *testing.T) {
	forEachSIMDBackend(t, func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(48))
		for n := 0; n <= 130; n++ {
			for _, nOffs := range []int{0, 1, 2, 5, 9} {
				for trial := 0; trial < 3; trial++ {
					specialEvery := 0
					if trial >= 1 {
						specialEvery = 3
					}
					src, offs := gatherCase(rng, n, nOffs, specialEvery)
					w := make([]float64, n)
					y := make([]float64, n)
					fillVec(rng, w, specialEvery)
					fillVec(rng, y, specialEvery)
					a := rng.NormFloat64() * 5
					if trial == 2 {
						a = specials[rng.Intn(len(specials))]
					}

					ys := append([]float64(nil), y...)
					yb := append([]float64(nil), y...)
					ForceBackend("scalar")
					AxpyGatherSum(a, src, offs, ys)
					ForceBackend(name)
					AxpyGatherSum(a, src, offs, yb)
					eqBits(t, "AxpyGatherSum", n, ys, yb)

					floors := []float64{1e-8, 0.0, math.Copysign(0, -1), math.Inf(-1), math.Inf(1), math.NaN()}
					if n > 0 {
						floors = append(floors, w[rng.Intn(n)])
					}
					all := allGroups(n)
					for _, floor := range floors {
						groups := FloorGroups(w, floor, nil)
						ForceBackend("scalar")
						d1 := FlooredDotGatherSumGroups(w, src, offs, all, floor)
						g1 := FlooredDotGatherSumGroups(w, src, offs, groups, floor)
						ForceBackend(name)
						d2 := FlooredDotGatherSumGroups(w, src, offs, all, floor)
						g2 := FlooredDotGatherSumGroups(w, src, offs, groups, floor)
						eqBit(t, "FlooredDotGatherSumGroups-all", n, d1, d2)
						eqBit(t, "FlooredDotGatherSumGroups", n, g1, g2)
						// Omission neutrality: restricting to the surviving
						// groups must not move a bit versus the full row.
						eqBit(t, "FlooredDotGatherSumGroups-vs-full", n, d1, g1)
					}
				}
			}
		}
	})
}

// TestGatherSumMatchesComposition pins the fused kernels to the operations
// they fuse, on the active backend: AxpyGatherSum ≡ build the summed row
// with AddStrided(stride 1) then Axpy it; FlooredDotGatherSumGroups, over
// every group or over the FloorGroups list, ≡ FlooredDot against that row. This is the bit-exactness bridge the score kernels rely
// on — cached panel, fused fallback, and scalar fallback all agree.
func TestGatherSumMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, n := range []int{1, 3, 4, 8, 37, 128} {
		for _, nOffs := range []int{1, 2, 6} {
			src, offs := gatherCase(rng, n, nOffs, 0)
			row := make([]float64, n)
			Fill(row, 0)
			for _, o := range offs {
				AddStrided(row, src[o:o+n], 1)
			}

			w := make([]float64, n)
			y := make([]float64, n)
			fillVec(rng, w, 0)
			fillVec(rng, y, 0)
			a := rng.NormFloat64()

			want := append([]float64(nil), y...)
			Axpy(a, row, want)
			got := append([]float64(nil), y...)
			AxpyGatherSum(a, src, offs, got)
			eqBits(t, "AxpyGatherSum-vs-composed", n, want, got)

			d1 := FlooredDot(w, row, 0.5)
			d2 := FlooredDotGatherSumGroups(w, src, offs, allGroups(n), 0.5)
			eqBit(t, "FlooredDotGatherSumGroups-all-vs-composed", n, d1, d2)
			d3 := FlooredDotGatherSumGroups(w, src, offs, FloorGroups(w, 0.5, nil), 0.5)
			eqBit(t, "FlooredDotGatherSumGroups-vs-composed", n, d1, d3)
		}
	}
}

func TestGatherSumBounds(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on out-of-range offset", name)
			}
		}()
		f()
	}
	src := make([]float64, 16)
	y := make([]float64, 8)
	expectPanic("AxpyGatherSum high", func() { AxpyGatherSum(1, src, []int{9}, y) })
	expectPanic("AxpyGatherSum negative", func() { AxpyGatherSum(1, src, []int{-1}, y) })
	all := allGroups(len(y))
	expectPanic("FlooredDotGatherSumGroups high", func() { FlooredDotGatherSumGroups(y, src, []int{9}, all, 0) })
	expectPanic("FlooredDotGatherSumGroups negative", func() { FlooredDotGatherSumGroups(y, src, []int{-1}, all, 0) })
	expectPanic("FlooredDotGatherSumGroups group", func() { FlooredDotGatherSumGroups(y, src, []int{0}, []int32{2}, 0) })
	// In-range offsets at the exact boundary must not panic.
	AxpyGatherSum(1, src, []int{8, 0}, y)
	FlooredDotGatherSumGroups(y, src, []int{8, 0}, all, 0)
}

func FuzzGatherSumEquivalence(f *testing.F) {
	f.Add(make([]byte, 8*12), 3, 1e-8, 2.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, math.Inf(-1), -0.5)
	f.Fuzz(func(t *testing.T, raw []byte, nOffs int, floor, a float64) {
		v := bytesToFloats(raw)
		if nOffs < 0 || nOffs > 8 || len(v) < 2 {
			t.Skip()
		}
		// Carve w (and the axpy y) from the front, leave the rest as the
		// gather plane; derive offsets deterministically from the data.
		n := len(v) / 3
		w, src := v[:n], v[n:]
		if len(src) < n+1 {
			t.Skip()
		}
		offs := make([]int, nOffs)
		for j := range offs {
			offs[j] = (j * 7 % (len(src) - n + 1))
		}
		// The dot runs in both forms: over every lane group (the full row)
		// and over the FloorGroups list, which is the call core's score
		// kernels make.
		all := allGroups(n)
		groups := FloorGroups(w, floor, nil)
		restore := ActiveBackend()
		defer ForceBackend(restore)
		ForceBackend("scalar")
		wantDot := FlooredDotGatherSumGroups(w, src, offs, all, floor)
		wantY := append([]float64(nil), w...)
		AxpyGatherSum(a, src, offs, wantY)
		for _, name := range Backends() {
			ForceBackend(name)
			gotDot := FlooredDotGatherSumGroups(w, src, offs, all, floor)
			if !sameFloat(wantDot, gotDot) {
				t.Fatalf("backend %s dot: %v vs scalar %v", name, gotDot, wantDot)
			}
			// wantDot is the scalar full row: one comparison checks both.
			gotGroups := FlooredDotGatherSumGroups(w, src, offs, groups, floor)
			if !sameFloat(wantDot, gotGroups) {
				t.Fatalf("backend %s FloorGroups dot: %v vs full-row scalar %v", name, gotGroups, wantDot)
			}
			gotY := append([]float64(nil), w...)
			AxpyGatherSum(a, src, offs, gotY)
			for i := range wantY {
				if !sameFloat(wantY[i], gotY[i]) {
					t.Fatalf("backend %s axpy entry %d: %v vs scalar %v", name, i, gotY[i], wantY[i])
				}
			}
		}
	})
}

// TestBackendEquivalenceAddSelect pins the AddSelect scalar reference to
// a per-bit branch, and every other backend to the reference, at every
// length 0..200 (one to four mask words, tails included), on random masks
// with adversarial dst, on and off values.
func TestBackendEquivalenceAddSelect(t *testing.T) {
	branchy := func(dst []float64, mask []uint64, on, off float64) {
		for k := range dst {
			if mask[k/64]&(1<<(k%64)) != 0 {
				dst[k] += on
			} else {
				dst[k] += off
			}
		}
	}
	pairs := [][2]float64{{1.5, -0.25}, {math.Copysign(0, -1), 0}, {math.Inf(1), math.Inf(-1)}, {math.NaN(), 1e-300}}
	run := func(t *testing.T, name string) {
		rng := rand.New(rand.NewSource(53))
		for n := 0; n <= 200; n++ {
			for trial := 0; trial < 4; trial++ {
				mask := make([]uint64, (n+63)/64+trial%2) // spare words are ignored
				for w := range mask {
					mask[w] = rng.Uint64()
				}
				dst := make([]float64, n)
				fillVec(rng, dst, trial)
				on, off := rng.NormFloat64(), rng.NormFloat64()
				if trial > 1 {
					p := pairs[rng.Intn(len(pairs))]
					on, off = p[0], p[1]
				}
				want := append([]float64(nil), dst...)
				branchy(want, mask, on, off)
				ds := append([]float64(nil), dst...)
				ForceBackend("scalar")
				AddSelect(ds, mask, on, off)
				eqBits(t, "AddSelect scalar vs branch", n, want, ds)
				if name == "scalar" {
					continue
				}
				db := append([]float64(nil), dst...)
				ForceBackend(name)
				AddSelect(db, mask, on, off)
				eqBits(t, "AddSelect", n, ds, db)
			}
		}
	}
	restore := ActiveBackend()
	defer ForceBackend(restore)
	run(t, "scalar")
	forEachSIMDBackend(t, run)
}
