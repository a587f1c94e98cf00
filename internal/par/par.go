// Package par provides the shared-memory parallel runtime used by the
// AO-ADMM kernels: a fork-join helper, a dynamic chunk scheduler analogous to
// OpenMP's schedule(dynamic), parallel reductions, and optional per-thread
// scheduler telemetry (chunks claimed and busy time per worker).
//
// All kernels in this repository are parallelized over the long (row or
// slice) dimension of tall-and-skinny data. Static partitioning is used where
// work per row is uniform (dense kernels); dynamic scheduling is used where
// it is not (CSF traversal over power-law slices, blocked ADMM where blocks
// converge after different numbers of iterations).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Threads normalizes a requested thread count: values <= 0 mean "use
// GOMAXPROCS". The result is always >= 1.
func Threads(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Do runs fn(tid) on nThreads goroutines (tid in [0, nThreads)) and waits for
// all of them. With nThreads == 1 it calls fn inline, avoiding goroutine
// overhead on serial runs.
//
// A panic in any worker is captured and re-raised on the caller's goroutine
// after every worker has joined, so instrumented callbacks that panic cannot
// leave the WaitGroup hanging or kill the process from a detached goroutine.
// When several workers panic, the first captured value wins; the re-raised
// panic carries the caller's stack, not the worker's.
func Do(nThreads int, fn func(tid int)) {
	nThreads = Threads(nThreads)
	if nThreads == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicVal any
	wg.Add(nThreads)
	for t := 0; t < nThreads; t++ {
		go func(tid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			fn(tid)
		}(t)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Static partitions [0, n) into nThreads contiguous ranges and runs
// fn(tid, begin, end) for each non-empty range in parallel. Ranges differ in
// length by at most one. Used for uniform-cost row loops.
func Static(n, nThreads int, fn func(tid, begin, end int)) {
	StaticT(nil, n, nThreads, fn)
}

// StaticT is Static with optional scheduler telemetry: when tel is non-nil,
// each worker's span is counted as one chunk and its execution time is added
// to that tid's busy time. tel == nil costs one predictable branch per span.
func StaticT(tel *Telemetry, n, nThreads int, fn func(tid, begin, end int)) {
	nThreads = Threads(nThreads)
	if n <= 0 {
		return
	}
	if nThreads > n {
		nThreads = n
	}
	if tel != nil {
		tel.grow(nThreads)
	}
	Do(nThreads, func(tid int) {
		begin, end := Span(n, nThreads, tid)
		if begin < end {
			tel.run(tid, begin, end, fn)
		}
	})
}

// Span returns the half-open range [begin, end) of the tid-th of nThreads
// near-equal contiguous partitions of [0, n).
func Span(n, nThreads, tid int) (begin, end int) {
	q, r := n/nThreads, n%nThreads
	begin = tid*q + min(tid, r)
	end = begin + q
	if tid < r {
		end++
	}
	return begin, end
}

// Dynamic schedules [0, n) in chunks of size chunk to nThreads workers using
// an atomic counter, mirroring OpenMP's schedule(dynamic, chunk). fn is
// called with (tid, begin, end) for each claimed chunk. Work items with
// non-uniform cost (power-law tensor slices, ADMM blocks) load-balance well
// under this scheme.
//
// The worker count is clamped to ceil(n/chunk) — spawning more workers than
// there are chunks would only create goroutines that claim nothing (the
// clamp Static applies when nThreads > n). Tids stay compact: fn only ever
// sees tid in [0, workers), so callers may index tid-sized scratch arrays.
func Dynamic(n, chunk, nThreads int, fn func(tid, begin, end int)) {
	DynamicT(nil, n, chunk, nThreads, fn)
}

// DynamicT is Dynamic with optional scheduler telemetry: when tel is
// non-nil, every claimed chunk increments that tid's chunk count and its
// execution time is added to the tid's busy time. tel == nil costs one
// predictable branch per chunk.
func DynamicT(tel *Telemetry, n, chunk, nThreads int, fn func(tid, begin, end int)) {
	nThreads = Threads(nThreads)
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	if maxWorkers := (n + chunk - 1) / chunk; nThreads > maxWorkers {
		nThreads = maxWorkers
	}
	if tel != nil {
		tel.grow(nThreads)
	}
	if nThreads == 1 {
		for b := 0; b < n; b += chunk {
			e := min(b+chunk, n)
			tel.run(0, b, e, fn)
		}
		return
	}
	var next atomic.Int64
	Do(nThreads, func(tid int) {
		for {
			b := int(next.Add(int64(chunk))) - chunk
			if b >= n {
				return
			}
			e := min(b+chunk, n)
			tel.run(tid, b, e, fn)
		}
	})
}

// CyclicT deals [0, n) out in chunks of size chunk round-robin: worker tid
// runs chunks tid, tid+workers, tid+2·workers, … in order. Unlike DynamicT,
// which chunks a worker runs depends only on (n, chunk, nThreads), never on
// timing, so per-worker accumulators (privatized reductions) come out
// bit-identical on every run with the same thread count, while neighbouring
// chunks of skewed cost still spread over different workers. The worker
// clamp and telemetry follow DynamicT.
func CyclicT(tel *Telemetry, n, chunk, nThreads int, fn func(tid, begin, end int)) {
	nThreads = Threads(nThreads)
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	nThreads = min(nThreads, nChunks)
	if tel != nil {
		tel.grow(nThreads)
	}
	Do(nThreads, func(tid int) {
		for c := tid; c < nChunks; c += nThreads {
			b := c * chunk
			e := min(b+chunk, n)
			tel.run(tid, b, e, fn)
		}
	})
}

// DynamicItems schedules n indivisible items (chunk size 1). Convenience for
// block-granular work distribution.
func DynamicItems(n, nThreads int, fn func(tid, item int)) {
	DynamicItemsT(nil, n, nThreads, fn)
}

// DynamicItemsT is DynamicItems with optional scheduler telemetry.
func DynamicItemsT(tel *Telemetry, n, nThreads int, fn func(tid, item int)) {
	DynamicT(tel, n, 1, nThreads, func(tid, begin, end int) {
		for i := begin; i < end; i++ {
			fn(tid, i)
		}
	})
}

// ReduceFloat64 runs fn(tid, begin, end) over a static partition of [0, n),
// collecting one float64 partial per thread, and returns their sum. Partials
// are combined serially so the reduction is deterministic for a fixed thread
// count.
func ReduceFloat64(n, nThreads int, fn func(tid, begin, end int) float64) float64 {
	nThreads = Threads(nThreads)
	if n <= 0 {
		return 0
	}
	if nThreads > n {
		nThreads = n
	}
	partial := make([]float64, nThreads)
	Do(nThreads, func(tid int) {
		begin, end := Span(n, nThreads, tid)
		if begin < end {
			partial[tid] = fn(tid, begin, end)
		}
	})
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// Reduce2Float64 is ReduceFloat64 for two simultaneous accumulators (e.g.
// primal and dual residual norms).
func Reduce2Float64(n, nThreads int, fn func(tid, begin, end int) (float64, float64)) (float64, float64) {
	nThreads = Threads(nThreads)
	if n <= 0 {
		return 0, 0
	}
	if nThreads > n {
		nThreads = n
	}
	pa := make([]float64, nThreads)
	pb := make([]float64, nThreads)
	Do(nThreads, func(tid int) {
		begin, end := Span(n, nThreads, tid)
		if begin < end {
			pa[tid], pb[tid] = fn(tid, begin, end)
		}
	})
	var sa, sb float64
	for t := 0; t < nThreads; t++ {
		sa += pa[t]
		sb += pb[t]
	}
	return sa, sb
}
