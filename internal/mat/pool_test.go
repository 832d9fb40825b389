package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitRunsOrReportsFalse: every accepted job runs exactly once, and a
// false return means the caller keeps ownership — running it inline must
// complete the work either way.
func TestSubmitRunsOrReportsFalse(t *testing.T) {
	const jobs = 64
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		job := func() {
			done.Add(1)
			wg.Done()
		}
		if !Submit(job) {
			job() // inline fallback, same rule the kernels use
		}
	}
	wg.Wait()
	if got := done.Load(); got != jobs {
		t.Fatalf("ran %d jobs, want %d", got, jobs)
	}
}

// TestSubmitSingleProc: with GOMAXPROCS=1 the pool may still hold
// workers (one fewer than NumCPU); Submit must never block, whatever it
// returns.
func TestSubmitSingleProc(t *testing.T) {
	if runtime.GOMAXPROCS(0) > 1 {
		t.Skip("pool has workers; covered by TestSubmitRunsOrReportsFalse")
	}
	for i := 0; i < 100; i++ {
		ran := false
		if !Submit(func() { ran = true }) {
			if ran {
				t.Fatal("job ran despite false return")
			}
		}
	}
}

// TestSubmitAcceptedAtTwoProcs: at GOMAXPROCS >= 2 the pool has a worker
// and Submit hands it work, even when an earlier GOMAXPROCS 1 pass (as
// under go test -cpu 1,2) started the pool. Otherwise every "invariant
// under parallelism" check would compare serial code with serial code.
func TestSubmitAcceptedAtTwoProcs(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	// An idle worker may still be returning from an earlier job, so retry
	// until one is receiving; a pool without workers never accepts.
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := make(chan struct{})
		if Submit(func() { close(done) }) {
			<-done
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit refused every job for 10s at GOMAXPROCS >= 2: the pool has no workers")
		}
		runtime.Gosched()
	}
}

// TestSubmitConcurrent hammers Submit from many goroutines under -race:
// the channel handoff must stay race-free and every job must run once.
func TestSubmitConcurrent(t *testing.T) {
	const clients, perClient = 8, 200
	var done atomic.Int64
	var outer sync.WaitGroup
	for c := 0; c < clients; c++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			var wg sync.WaitGroup
			for i := 0; i < perClient; i++ {
				wg.Add(1)
				job := func() {
					done.Add(1)
					wg.Done()
				}
				if !Submit(job) {
					job()
				}
			}
			wg.Wait()
		}()
	}
	outer.Wait()
	if got := done.Load(); got != clients*perClient {
		t.Fatalf("ran %d jobs, want %d", got, clients*perClient)
	}
}
