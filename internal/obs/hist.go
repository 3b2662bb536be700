// Package obs holds the log₂ histogram shared by the serving daemon and the
// load harness, so a /statsz histogram and a cpaload phase report count in
// the same buckets and digest with the same quantile code.
package obs

import (
	"sync"
	"time"
)

// Buckets is the number of log₂ buckets a histogram keeps.
const Buckets = 32

// LatencyBase is the upper bound of a latency histogram's first bucket, in
// nanoseconds: 32 doubling buckets span 50µs … ~30h.
const LatencyBase = int64(50 * time.Microsecond)

// Hist is a log₂-bucketed histogram of non-negative values. Bucket 0 counts
// values up to Base, bucket b values in (Base·2^(b-1), Base·2^b], and the
// last bucket everything larger; negative values count as 0. It is safe
// for concurrent use.
type Hist struct {
	// Base is the upper bound of bucket 0; zero means LatencyBase. Set it
	// before the first Observe.
	Base int64

	mu sync.Mutex
	s  Snapshot
}

// Snapshot is a histogram's state at one instant.
type Snapshot struct {
	Base   int64
	Counts [Buckets]int64
	N      int64 // values observed
	Sum    int64 // their sum
	Max    int64 // the largest
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	for bound := h.base(); b < Buckets-1 && v > bound; bound *= 2 {
		b++
	}
	h.mu.Lock()
	h.s.Counts[b]++
	h.s.N++
	h.s.Sum += v
	if v > h.s.Max {
		h.s.Max = v
	}
	h.mu.Unlock()
}

func (h *Hist) base() int64 {
	if h.Base > 0 {
		return h.Base
	}
	return LatencyBase
}

// Snapshot returns the histogram's current state.
func (h *Hist) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.s
	s.Base = h.base()
	return s
}

// Reset clears the histogram and returns what it held, in one critical
// section, so a concurrent Observe lands wholly before or after the cut.
func (h *Hist) Reset() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.s
	s.Base = h.base()
	h.s = Snapshot{}
	return s
}

// Log2 returns the first n bucket counts, with the counts of every later
// bucket folded into the last one returned.
func (s Snapshot) Log2(n int) []int64 {
	out := append([]int64(nil), s.Counts[:n]...)
	for _, c := range s.Counts[n:] {
		out[n-1] += c
	}
	return out
}

// Mean returns the mean observed value, or 0 for an empty histogram.
func (s Snapshot) Mean() int64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / s.N
}

// Quantile estimates the q-quantile (0 < q < 1): the midpoint of the
// bucket that covers it, with the bucket's upper bound capped at Max.
func (s Snapshot) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	target := int64(q * float64(s.N))
	if target >= s.N {
		target = s.N - 1
	}
	var seen int64
	for b := 0; b < Buckets; b++ {
		seen += s.Counts[b]
		if seen > target {
			upper := s.Base << uint(b)
			if upper > s.Max {
				upper = s.Max
			}
			var lower int64
			if b > 0 {
				lower = s.Base << uint(b-1)
			}
			return lower + (upper-lower)/2
		}
	}
	return s.Max
}
