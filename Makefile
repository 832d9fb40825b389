GO ?= go
BENCHTIME ?= 100ms

# BENCH_REPORT is the kernel benchmark report and FLEET_REPORT the fleet
# report: every target that writes, diffs or cleans one names it through
# these variables, and the compare targets write the fresh run beside it as
# <name>.new.json. BENCH_TOLERANCE is bench-compare's warn-only drift
# tolerance (CI passes 0.5).
BENCH_REPORT ?= BENCH_PR10.json
FLEET_REPORT ?= BENCH_PR9.json
BENCH_TOLERANCE ?= 0.25

.PHONY: build test race stress vet lint bench bench-quick bench-compare bench-trajectory fleet-smoke fleet-compare fault-ablation adapt-ablation transfer-ablation shootout-sweep docs-check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress reruns the solver and serving packages under the race detector at
# one and two procs, three times each, so the parallel kernels and the mat
# worker pool are exercised at GOMAXPROCS 2 as well as serially. lasso, core
# and place reach the pool through the path solver's Gram kernels; ols, core
# and place through the QR's row-split right-hand-side sweep; banded holds
# the interleaved column sweep the batched pdn step runs, and sparse the
# kernels of its one PCG, the interleaved batch solver (IC sweeps, SpMV,
# dots, masked updates), whose Go twins the race detector sees. serve,
# registry and transfer hold the concurrent handlers, the pooled codec
# buffers, the tenant cache and the calibration writes.
stress:
	$(GO) test -race -cpu 1,2 -count 3 ./internal/mat ./internal/sparse ./internal/banded ./internal/pdn \
		./internal/lasso ./internal/ols ./internal/core ./internal/place \
		./internal/serve ./internal/registry ./internal/transfer

vet:
	$(GO) vet ./...

# lint runs the deeper static analyzers when they are installed (CI installs
# them; locally this degrades to a notice rather than a failure).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

# bench runs the kernel/solver/pipeline/engine/server/online benchmark suite
# and writes $(BENCH_REPORT) with ns/op, allocs/op, and the speedup of each
# parallel, warm-started, sparse, batched, or reduced-basis implementation
# over its serial/cold/banded/looped/dense baseline.
bench:
	$(GO) run ./cmd/benchreport -out $(BENCH_REPORT) -benchtime $(BENCHTIME)

# bench-quick runs every benchmark exactly once and rewrites $(BENCH_REPORT).
bench-quick:
	$(GO) run ./cmd/benchreport -out $(BENCH_REPORT) -benchtime 1x

# bench-compare runs every benchmark once into $(BENCH_REPORT:.json=.new.json)
# and diffs it against the committed $(BENCH_REPORT); warn-only (see
# cmd/benchreport). This is the CI smoke configuration.
bench-compare:
	$(GO) run ./cmd/benchreport -out $(BENCH_REPORT:.json=.new.json) -benchtime 1x
	$(GO) run ./cmd/benchreport -compare $(BENCH_REPORT) -tolerance $(BENCH_TOLERANCE) $(BENCH_REPORT:.json=.new.json)

# bench-trajectory prints the cross-PR performance history from every
# committed BENCH_*.json baseline.
bench-trajectory:
	$(GO) run ./cmd/benchreport -trajectory

# fleet-smoke drives the multi-tenant server with the CI-sized fleet
# workload — 8 tenants, 1000 concurrent NDJSON streams, mixed
# predict/feedback/calibrate traffic (every 50th unary request is a few-shot
# /v1/calibrate alignment against the golden prior) — in-process, and writes
# $(FLEET_REPORT).
fleet-smoke:
	$(GO) run ./cmd/voltbench -tenants 8 -streams 1000 -cycles 3 -requests 2000 -calibrate-every 50 -out $(FLEET_REPORT)

# fleet-compare runs the same fleet workload into
# $(FLEET_REPORT:.json=.new.json) and diffs it against the committed
# $(FLEET_REPORT); warn-only (see cmd/benchreport).
fleet-compare:
	$(GO) run ./cmd/voltbench -tenants 8 -streams 1000 -cycles 3 -requests 2000 -calibrate-every 50 -out $(FLEET_REPORT:.json=.new.json)
	$(GO) run ./cmd/benchreport -compare $(FLEET_REPORT) -tolerance 0.5 $(FLEET_REPORT:.json=.new.json)

# fault-ablation regenerates the sensor-failure table (naive vs leave-k-out
# fallback) that CI uploads as an artifact.
fault-ablation:
	$(GO) run ./cmd/voltmap faults | tee FAULT_ABLATION.txt
	$(GO) run ./cmd/voltmap -csv faults > FAULT_ABLATION.csv

# adapt-ablation regenerates the online-recalibration-under-drift table
# (baseline vs static-drifted vs adapted) that CI uploads as an artifact.
adapt-ablation:
	$(GO) run ./cmd/voltmap adapt | tee ADAPT_ABLATION.txt
	$(GO) run ./cmd/voltmap -csv adapt > ADAPT_ABLATION.csv

# transfer-ablation regenerates the fleet few-shot calibration table (golden
# prior vs aligned vs from-scratch) that CI uploads as an artifact.
transfer-ablation:
	$(GO) run ./cmd/voltmap transfer | tee TRANSFER_ABLATION.txt
	$(GO) run ./cmd/voltmap -csv transfer > TRANSFER_ABLATION.csv

# shootout-sweep reruns the placement criteria shootout on the quick
# pipeline over seeds 1-5 and 4, 8, 16, 24 and 32 sensors into
# SHOOTOUT_SWEEP.txt: the evidence behind the criteria ranking in
# EXPERIMENTS.md, in one command. CI does not run it: eopt alone takes
# 14-17 s at 32 sensors.
shootout-sweep:
	rm -f SHOOTOUT_SWEEP.txt
	for s in 1 2 3 4 5; do for q in 4 8 16 24 32; do \
		echo "== seed $$s" >> SHOOTOUT_SWEEP.txt; \
		$(GO) run ./cmd/voltmap -seed $$s -shootq $$q -criteria dopt,eopt,framesense,worstcase,eagleeye shootout >> SHOOTOUT_SWEEP.txt || exit 1; \
	done; done

# docs-check enforces the documentation bar: package comments everywhere,
# intra-repo markdown links resolve, examples compile and pass.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) test -run Example ./...

clean:
	rm -f $(BENCH_REPORT:.json=.new.json) $(FLEET_REPORT:.json=.new.json) FAULT_ABLATION.txt FAULT_ABLATION.csv ADAPT_ABLATION.txt ADAPT_ABLATION.csv TRANSFER_ABLATION.txt TRANSFER_ABLATION.csv SHOOTOUT_SWEEP.txt
