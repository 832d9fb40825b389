package sparse

import (
	"sync"

	"voltsense/internal/mat"
)

// This file is the parallel execution layer of the sparse engine: a small
// dispatcher (team) that reuses the mat worker pool with preallocated jobs,
// and the share sizes of the batch solver's row-partitioned SpMV,
// elementwise and reduction stages (batch.go).
//
// Two invariants hold everywhere:
//
//   - Determinism. Every output element is written by exactly one share with
//     a per-element operation order that does not depend on the worker
//     count, and reductions accumulate into fixed-size blocks (dotBlock
//     elements) whose partial sums are combined serially in block order.
//     Results are therefore bitwise identical whether a kernel runs with 1
//     worker or GOMAXPROCS.
//   - Zero allocation. Jobs and stage closures are built once at solver
//     construction and parameterized through fields, so the transient
//     stepping hot loop allocates nothing.

const (
	// rowChunk is the minimum rows per share for SpMV; below it dispatch
	// overhead dominates the ~5 nnz/row work.
	rowChunk = 2048
	// vecChunk is the minimum elements per share for elementwise kernels.
	vecChunk = 8192
	// dotBlock is the fixed reduction block: partial sums are formed per
	// block and combined serially, so the summation tree is independent of
	// the worker count.
	dotBlock = 4096
	// dotBlockChunk is the minimum reduction blocks per share.
	dotBlockChunk = 4
)

// numDotBlocks returns the reduction-block count for vectors of length n.
func numDotBlocks(n int) int { return (n + dotBlock - 1) / dotBlock }

// team fans one index range out across the mat worker pool. All job storage
// is preallocated: a dispatch costs channel sends and a WaitGroup, never an
// allocation. A team is single-client — one dispatch at a time — matching
// the solver that embeds it.
type team struct {
	workers int
	wg      sync.WaitGroup
	fn      func(lo, hi int)
	jobs    []teamJob
}

type teamJob struct {
	call   func()
	lo, hi int
}

// init prepares the team for up to workers concurrent shares; workers <= 0
// tracks the mat pool default (SetParallelism / GOMAXPROCS).
func (t *team) init(workers int) {
	t.workers = workers
	n := workers
	if n <= 0 {
		n = mat.Parallelism()
	}
	t.jobs = make([]teamJob, n)
	for c := range t.jobs {
		j := &t.jobs[c]
		j.call = func() {
			t.fn(j.lo, j.hi)
			t.wg.Done()
		}
	}
}

// shares returns the effective share count for n items at minChunk
// granularity. Work too small to split returns 1 before the pool default is
// read, since that read takes a runtime lock.
func (t *team) shares(n, minChunk int) int {
	m := n / minChunk
	if m <= 1 {
		return 1
	}
	p := t.workers
	if p <= 0 {
		p = mat.Parallelism()
	}
	if p > len(t.jobs) {
		p = len(t.jobs)
	}
	if p > m {
		p = m
	}
	if p < 1 {
		p = 1
	}
	return p
}

// run partitions [0, n) into contiguous chunks and executes fn on each,
// dispatching all but the first chunk to the pool (inline when the pool is
// busy or absent). Chunk boundaries depend only on n and the share count;
// fn must write disjoint outputs per chunk.
func (t *team) run(n, minChunk int, fn func(lo, hi int)) {
	p := t.shares(n, minChunk)
	if p <= 1 {
		fn(0, n)
		return
	}
	t.fn = fn
	t.wg.Add(p - 1)
	for c := 1; c < p; c++ {
		j := &t.jobs[c]
		j.lo, j.hi = c*n/p, (c+1)*n/p
		if !mat.Submit(j.call) {
			j.call()
		}
	}
	fn(0, n/p)
	t.wg.Wait()
}
