package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	d := New(2, 3)
	if d.Rows() != 2 || d.Size() != 6 || len(d.Row(0)) != 3 {
		t.Fatalf("dims = (%d,%d,%d)", d.Rows(), len(d.Row(0)), d.Size())
	}
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 || d.Data()[5] != 5 {
		t.Fatalf("Set/At/Data disagree: %v", d.Data())
	}
	row := d.Row(1)
	row[0] = 7 // views alias the backing store
	if d.At(1, 0) != 7 {
		t.Fatal("Row is not a view")
	}
	d.Fill(2)
	for _, v := range d.Data() {
		if v != 2 {
			t.Fatalf("Fill left %v", d.Data())
		}
	}
	d.Zero()
	if d.At(1, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestCloneCopyAXPYDiff(t *testing.T) {
	a := New(2, 2)
	copy(a.Data(), []float64{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 10)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares backing")
	}
	if got := a.MaxAbsDiff(b); got != 9 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
	c := New(2, 2)
	c.CopyFrom(a)
	if c.At(1, 1) != 4 {
		t.Fatalf("CopyFrom gave %v", c.Data())
	}
}

func TestRowKernels(t *testing.T) {
	d := New(2, 3)
	copy(d.Row(0), []float64{math.Log(1), math.Log(2), math.Log(5)})
	d.SoftmaxRow(0)
	if math.Abs(d.At(0, 2)-5.0/8) > 1e-12 {
		t.Fatalf("SoftmaxRow = %v", d.Row(0))
	}
	copy(d.Row(1), []float64{2, 2, 4})
	if sum := d.NormalizeRow(1); sum != 8 || math.Abs(d.At(1, 2)-0.5) > 1e-12 {
		t.Fatalf("NormalizeRow: sum=%v row=%v", sum, d.Row(1))
	}
	if got := d.RowSum(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("RowSum = %v", got)
	}
}

func TestColSumsInto(t *testing.T) {
	d := New(3, 2)
	copy(d.Data(), []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	d.ColSumsInto(dst, nil)
	if dst[0] != 9 || dst[1] != 12 {
		t.Fatalf("ColSumsInto(all) = %v", dst)
	}
	clear(dst)
	d.ColSumsInto(dst, []int{0, 2})
	if dst[0] != 6 || dst[1] != 8 {
		t.Fatalf("ColSumsInto(subset) = %v", dst)
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16} {
		n := 103
		seen := make([]int, n)
		var rows [][2]int
		ParallelFor(n, shards, func(shard, lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++ // shards own disjoint ranges, no race
			}
			_ = rows
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("shards=%d: index %d covered %d times", shards, i, c)
			}
		}
	}
	// Degenerate cases: more shards than elements, zero elements.
	ran := 0
	ParallelFor(0, 4, func(shard, lo, hi int) { ran += hi - lo })
	if ran != 0 {
		t.Fatalf("n=0 processed %d", ran)
	}
}

func TestShards(t *testing.T) {
	if Shards(8, 3) != 3 || Shards(0, 10) != 1 || Shards(4, 10) != 4 {
		t.Fatal("Shards clamping wrong")
	}
}

// TestShardedAccumulateDeterministic verifies the reduce matches a serial
// accumulation exactly for shards=1 and within float tolerance otherwise,
// and that repeated runs with the same shard count are bit-identical.
func TestShardedAccumulateDeterministic(t *testing.T) {
	n, size := 250, 7
	weight := func(i, k int) float64 { return float64(i%13)*0.25 + float64(k)*0.125 }
	serial := make([]float64, size)
	for i := 0; i < n; i++ {
		for k := 0; k < size; k++ {
			serial[k] += weight(i, k)
		}
	}
	var acc Sharded
	for _, shards := range []int{1, 2, 5, 8} {
		got := make([]float64, size)
		acc.Accumulate(got, 1.5, size, n, shards, func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				for k := 0; k < size; k++ {
					buf[k] += weight(i, k)
				}
			}
		})
		again := make([]float64, size)
		acc.Accumulate(again, 1.5, size, n, shards, func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				for k := 0; k < size; k++ {
					buf[k] += weight(i, k)
				}
			}
		})
		for k := 0; k < size; k++ {
			want := 1.5 + serial[k]
			if math.Abs(got[k]-want) > 1e-9*math.Abs(want) {
				t.Fatalf("shards=%d: dst[%d] = %v, want %v", shards, k, got[k], want)
			}
			if got[k] != again[k] {
				t.Fatalf("shards=%d: non-deterministic reduce at %d", shards, k)
			}
		}
	}
}

// TestShardedAccumulateShardInvariant pins the reduce to the block layout:
// over inputs whose float sums depend on association order (magnitudes
// spanning 16 decades), every shard count yields the same bits, on loops
// below, across and far beyond the block cap.
func TestShardedAccumulateShardInvariant(t *testing.T) {
	const size = 5
	for _, n := range []int{1, 255, 257, 1000, 3 * maxBlocks * blockLen} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]float64, n*size)
		for i := range vals {
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)))
		}
		fn := func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				for k := range buf {
					buf[k] += vals[i*size+k]
				}
			}
		}
		var ref []float64
		for shards := 1; shards <= 8; shards++ {
			var acc Sharded
			got := make([]float64, size)
			acc.Accumulate(got, 0.1, size, n, shards, fn)
			if ref == nil {
				ref = got
				continue
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
					t.Fatalf("n=%d shards=%d: dst[%d] = %v, shards=1 gave %v", n, shards, k, got[k], ref[k])
				}
			}
		}
	}
}

// TestShardedBufferReuse checks that steady-state accumulation does not
// reallocate the per-shard buffers.
func TestShardedBufferReuse(t *testing.T) {
	var acc Sharded
	first := acc.Buffers(4, 16)
	second := acc.Buffers(4, 16)
	if &first[0][0] != &second[0][0] {
		t.Fatal("Buffers reallocated on matching shape")
	}
	third := acc.Buffers(2, 16) // fewer shards: prefix reuse
	if &first[0][0] != &third[0][0] {
		t.Fatal("Buffers reallocated on shard shrink")
	}
	fourth := acc.Buffers(4, 8) // size change: must reallocate
	if len(fourth[0]) != 8 {
		t.Fatal("Buffers ignored size change")
	}
}
