package loadgen

import (
	"time"

	"cpa/internal/obs"
)

// HistSummary is the JSON-ready digest of a latency histogram.
type HistSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// summarize digests a latency histogram's state.
func summarize(s obs.Snapshot) HistSummary {
	out := HistSummary{Count: s.N, MaxMs: nsToMs(s.Max)}
	if s.N > 0 {
		out.MeanMs = nsToMs(s.Mean())
		out.P50Ms = nsToMs(s.Quantile(0.50))
		out.P90Ms = nsToMs(s.Quantile(0.90))
		out.P99Ms = nsToMs(s.Quantile(0.99))
	}
	return out
}

func nsToMs(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// summaryFromCounts digests externally collected latency bucket counters
// into a HistSummary. The serve layer exports its histograms in the same
// obs family (serve.PublishStats), so a phase report can diff the
// cumulative counters at the phase boundaries and summarise the difference
// here. Buckets beyond obs.Buckets fold into the last bucket; max is
// whatever the caller can attribute to the window.
func summaryFromCounts(counts []int64, n int64, sum, max time.Duration) HistSummary {
	s := obs.Snapshot{Base: obs.LatencyBase, N: n, Sum: int64(sum), Max: int64(max)}
	for b, c := range counts {
		if c < 0 {
			c = 0 // counter reset (chaos restart) mid-window
		}
		s.Counts[min(b, obs.Buckets-1)] += c
	}
	return summarize(s)
}
