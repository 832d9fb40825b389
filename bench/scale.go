package main

import (
	"runtime"
	"time"

	"voltsense/internal/experiments"
	"voltsense/internal/grid"
	"voltsense/internal/pdn"
)

// scale sizes every workload. paperScale is what the benchmark runs; the
// package test runs the same code at a tiny scale.
type scale struct {
	campaign experiments.Config // the offline campaign's pipeline
	tableQ   int                // Table 2 sensors per core

	scanGrid    grid.Config // mesh of the critical-node scan
	scanSteps   int         // transient steps per scan
	scanBackend pdn.Backend // Auto: the code picks (sparse at this width)

	serve      experiments.Config // pipeline the served artifacts are fitted from
	perCore    int                // served sensors per core (Q = perCore × cores)
	fallback   int                // leave-k-out fallback budget of the artifact
	tenants    int                // tenants in the store
	serveReps  int                // set-ups per run for setup_s (serving workloads)
	rate       float64            // fixed offered rate of serve-predict, requests/s
	limit      time.Duration      // p99 latency limit for the rate search
	resolution float64            // rate search stops at this relative width
	clients    int                // client goroutines (and connections)
	cycles     int                // cycles per NDJSON session in serve-mixed
	calSamples int                // labeled samples per calibrate request
}

// paperScale is the benchmark as BENCHMARK.json runs it.
//
// A run reports medians over several operations, because on a shared
// two-core machine one operation's wall time moves by about 12% from one
// repetition to the next. So the campaign is the quick pipeline's (≈5 s,
// three or four per run) rather than the paper's (≈30 s, one per run, whose
// runs spread 20–30%), and the scan mesh is wider than 256 nodes, so the
// code picks the sparse backend, but only 24 rows deep (≈2.2 s, seven to
// nine per run).
//
// The fixed offered rate stays well inside the 2-client capacity even when
// the shared host runs slow (16 000 req/s at its slowest seen, 34 000 at
// its fastest): at 12 000 req/s a slow stretch turned a 0.11 ms p90 into
// 0.39 ms.
func paperScale() scale {
	sg := grid.DefaultConfig()
	sg.NX, sg.NY = 288, 24
	return scale{
		campaign:    experiments.QuickConfig(),
		tableQ:      2,
		scanGrid:    sg,
		scanSteps:   8,
		scanBackend: pdn.Auto,
		serve:       experiments.QuickConfig(),
		perCore:     2,
		fallback:    2,
		tenants:     8,
		serveReps:   3,
		rate:        6000,
		limit:       time.Millisecond,
		resolution:  0.05,
		clients:     min(2, runtime.NumCPU()),
		cycles:      64,
		calSamples:  16,
	}
}
