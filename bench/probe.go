package main

import "time"

// The shared machine the benchmark was defined on changes speed by up to a
// third for minutes at a time: its processors run slower rather than being
// taken away, and every workload slows with them. A set of runs that
// straddles such a change spreads by about the change itself. So each run
// also times a fixed loop owned by the benchmark, between its operations,
// and the result line scales every timing to the speed at which that loop
// takes probeNominal:
//
//	scaled time = measured time × probeNominal / median loop time
//
// and a rate the other way round. The loop never calls the program, so a
// change to the program moves the scaled figures exactly as much as the
// measured ones; the run header keeps the measured figures.
const (
	probeIters   = 10_000_000
	probeNominal = 25 * time.Millisecond // the loop's usual time on that machine
)

// probe collects the loop's timings over one run.
type probe struct{ times []float64 }

// probeSink keeps the loop's result alive, so the compiler keeps the loop.
var probeSink float64

// sample times the loop once: a chain of dependent floating-point
// multiply-adds, so its time follows the processor's speed and nothing else.
func (p *probe) sample() {
	t0 := time.Now()
	x := 1.0
	for i := 0; i < probeIters; i++ {
		x = x*1.0000001 + 1e-9
	}
	probeSink = x
	p.times = append(p.times, time.Since(t0).Seconds())
}

// speed is how fast the machine ran during the run relative to the nominal
// speed: above 1 when faster.
func (p *probe) speed() float64 {
	if len(p.times) == 0 {
		return 1
	}
	return probeNominal.Seconds() / median(p.times)
}
