package mat

import (
	"sync"
	"sync/atomic"

	"cpa/internal/mathx"
)

// ParallelFor splits [0, n) into `shards` contiguous ranges processed
// concurrently, passing each worker its shard index for per-shard scratch.
// With one shard it runs inline (no goroutine overhead). This is the
// paper's Algorithm 3 map step with goroutine shards substituting for Spark
// executors (DESIGN.md D5). A panic in a shard is re-raised on the caller's
// goroutine once every shard has stopped, so callers can recover it as if
// the loop had run inline.
func ParallelFor(n, shards int, fn func(shard, lo, hi int)) {
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	var failed atomic.Pointer[any]
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failed.CompareAndSwap(nil, &r)
				}
			}()
			fn(s, s*n/shards, (s+1)*n/shards)
		}(s)
	}
	wg.Wait()
	if r := failed.Load(); r != nil {
		panic(*r)
	}
}

// Shards clamps the requested parallelism to the loop length, never below
// one — the shard count every ParallelFor caller should use.
func Shards(parallelism, n int) int {
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// Block layout of Sharded.Accumulate: [0, n) is cut into ⌈n/blockLen⌉
// near-equal contiguous blocks, at most maxBlocks of them (bounding the
// buffer count on very large loops).
const (
	blockLen  = 256
	maxBlocks = 64
)

// numBlocks returns the number of reduction blocks Accumulate cuts [0, n)
// into. It depends on n alone.
func numBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	b := (n + blockLen - 1) / blockLen
	if b > maxBlocks {
		b = maxBlocks
	}
	return b
}

// Sharded is a reusable pool of per-block accumulation buffers with a
// deterministic, shard-invariant reduce: [0, n) is cut into blocks whose
// layout depends only on n (numBlocks), each block accumulates its sufficient
// statistics into a private buffer, and the buffers are summed in block
// order. The shard count only decides which goroutine runs which blocks, so
// results are bit-identical for every shard count, Parallelism or
// GOMAXPROCS. This is the Algorithm 3 reduce step (DESIGN.md D5). The zero
// value is ready to use; buffers are retained between calls so steady-state
// accumulation is allocation-free.
type Sharded struct {
	bufs [][]float64
}

// Buffers returns `count` zeroed buffers of the given size, reusing prior
// allocations when the shape matches.
func (a *Sharded) Buffers(count, size int) [][]float64 {
	if len(a.bufs) < count || (len(a.bufs) > 0 && len(a.bufs[0]) != size) {
		a.bufs = make([][]float64, count)
		for s := range a.bufs {
			a.bufs[s] = make([]float64, size)
		}
	}
	bufs := a.bufs[:count]
	for _, b := range bufs {
		mathx.Fill(b, 0)
	}
	return bufs
}

// Accumulate runs fn once per block of [0, n), each block accumulating into
// its own zeroed buffer of the given size, then reduces the buffers into
// dst in block order: dst[k] = init + Σ_b buf_b[k]. Up to `shards`
// goroutines run contiguous runs of blocks; the result does not depend on
// their number.
func (a *Sharded) Accumulate(dst []float64, init float64, size, n, shards int, fn func(buf []float64, lo, hi int)) {
	blocks := numBlocks(n)
	bufs := a.Buffers(blocks, size)
	ParallelFor(blocks, Shards(shards, blocks), func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			fn(bufs[b], b*n/blocks, (b+1)*n/blocks)
		}
	})
	Fill(dst, init)
	for _, buf := range bufs {
		for k, v := range buf {
			dst[k] += v
		}
	}
}

// Fill sets every element of v to x — re-exported here so accumulator
// callers need only this package for buffer bookkeeping.
func Fill(v []float64, x float64) { mathx.Fill(v, x) }
