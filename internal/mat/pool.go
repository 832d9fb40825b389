package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernels in this package split work across a small persistent pool of
// goroutines. The pool is started lazily on first use and sized to
// max(GOMAXPROCS, NumCPU)-1 (the caller always executes one share itself),
// so a process that raises GOMAXPROCS after first use — `go test -cpu 1,2`
// does — still finds workers; how many shares a kernel splits into follows
// Parallelism at each call. Work is handed off over an unbuffered channel
// with an inline fallback, so a saturated pool — or a nested parallel
// section — degrades to serial execution instead of queueing or
// deadlocking.
//
// Determinism: work is partitioned by index range and every output element is
// written by exactly one goroutine, with the same per-element operation order
// regardless of the worker count. Results are therefore bitwise identical
// whether a kernel runs serial or fully parallel.

// parDegree holds the configured parallel degree; 0 means "track GOMAXPROCS".
var parDegree atomic.Int64

var (
	poolOnce sync.Once
	poolJobs chan func() // nil on a single-CPU machine run at GOMAXPROCS 1
)

func startPool() {
	n := max(runtime.GOMAXPROCS(0), runtime.NumCPU()) - 1
	if n < 1 {
		return // single-proc: poolJobs stays nil, everything runs inline
	}
	poolJobs = make(chan func())
	for i := 0; i < n; i++ {
		go func() {
			for f := range poolJobs {
				f()
			}
		}()
	}
}

// Parallelism returns the maximum number of concurrent shares a kernel call
// may split into. The default tracks runtime.GOMAXPROCS.
func Parallelism() int {
	if d := parDegree.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism bounds the number of concurrent shares used by the blocked
// kernels and returns the previous bound. n <= 0 restores the default
// (GOMAXPROCS). SetParallelism(1) forces fully serial execution; results are
// identical either way, so the knob exists for benchmarking serial baselines
// and for embedding in already-parallel callers.
func SetParallelism(n int) int {
	prev := int(parDegree.Load())
	if prev == 0 {
		prev = runtime.GOMAXPROCS(0)
	}
	if n <= 0 {
		parDegree.Store(0)
	} else {
		parDegree.Store(int64(n))
	}
	return prev
}

// parallelFor partitions [0, n) into contiguous chunks of at least minChunk
// indices and runs fn on each, using the worker pool for all but the first
// chunk. It returns after every chunk has completed. fn must not depend on
// chunk execution order; chunks never overlap.
func parallelFor(n, minChunk int, fn func(lo, hi int)) {
	parallelForShares(n, minChunk, 0, fn)
}

// ParallelFor runs fn over contiguous, non-overlapping chunks of [0, n) on
// the package worker pool, returning after every chunk completes. minChunk
// bounds the smallest chunk; maxShares additionally caps the number of
// concurrent shares (<= 0 means the kernel default, SetParallelism /
// GOMAXPROCS). Chunk boundaries depend only on n and the effective share
// count, never on scheduling, so callers that partition output by index —
// the pattern every kernel here uses — stay bitwise deterministic. Nested
// calls (fn itself invoking kernels or ParallelFor) are safe: a saturated
// pool degrades to inline execution instead of queueing or deadlocking.
func ParallelFor(n, minChunk, maxShares int, fn func(lo, hi int)) {
	parallelForShares(n, minChunk, maxShares, fn)
}

// Submit hands f to the package worker pool without blocking and reports
// whether a worker accepted it. When it returns false — a single-proc
// machine, a saturated pool, or a nested parallel section — the caller must
// run f itself; that inline fallback is the same degradation rule the
// kernels use, so submission never queues or deadlocks. Unlike ParallelFor,
// Submit takes a caller-owned func value, which lets hot loops dispatch
// preallocated jobs with zero allocations per call (the pattern the sparse
// solver's step kernels rely on).
func Submit(f func()) bool {
	poolOnce.Do(startPool)
	if poolJobs == nil {
		return false
	}
	select {
	case poolJobs <- f:
		return true
	default:
		return false
	}
}

func parallelForShares(n, minChunk, maxShares int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	p := Parallelism()
	if maxShares > 0 && p > maxShares {
		p = maxShares
	}
	if max := n / minChunk; p > max {
		p = max
	}
	if p <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)
	if poolJobs == nil {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 1; c < p; c++ {
		lo, hi := c*n/p, (c+1)*n/p
		if lo == hi {
			continue
		}
		wg.Add(1)
		job := func() {
			defer wg.Done()
			fn(lo, hi)
		}
		select {
		case poolJobs <- job:
		default:
			job() // pool busy (or nested call): run this share inline
		}
	}
	fn(0, n/p)
	wg.Wait()
}
