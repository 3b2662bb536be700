package obs

import (
	"slices"
	"testing"
)

// TestHistBuckets pins the bucket rule both exporters rely on: bucket 0
// holds values up to Base, bucket b values in (Base·2^(b-1), Base·2^b],
// negatives count as 0, and Log2 folds the tail into its last bucket.
func TestHistBuckets(t *testing.T) {
	h := Hist{Base: 1}
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 5, 8, 9, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []int64{3, 1, 2, 2, 1}; !slices.Equal(s.Counts[:5], want) {
		t.Fatalf("buckets %v, want %v", s.Counts[:5], want)
	}
	if s.Counts[Buckets-1] != 1 {
		t.Fatalf("2^40 did not land in the last bucket: %v", s.Counts)
	}
	if s.N != 10 || s.Max != 1<<40 || s.Sum != 32+1<<40 {
		t.Fatalf("n=%d sum=%d max=%d", s.N, s.Sum, s.Max)
	}
	if got := s.Log2(4); !slices.Equal(got, []int64{3, 1, 2, 4}) {
		t.Fatalf("Log2(4) = %v, want the tail folded into bucket 3", got)
	}
	if (&Hist{}).Snapshot().Base != LatencyBase {
		t.Fatal("zero Hist is not a latency histogram")
	}
	if r := h.Reset(); r.N != 10 || h.Snapshot().N != 0 {
		t.Fatalf("Reset returned %d values and left %d", r.N, h.Snapshot().N)
	}
}
