#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the working
# directory: the Go build and module caches, the toolchain's config and
# telemetry directory, the harness binary and each run's scratch files.
# Outside a full checkout (no go.mod beside bench/) the build fails and the
# script exits non-zero without running anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# The first build stamps the commit into the binary. Go fails that build when
# the checkout sits inside a repository git refuses to read (one owned by
# another user, say); the second then builds unstamped and the run records
# the commit as unknown.
cd "$root/bench"
go build -o "$out/bench" . 2>/dev/null || go build -buildvcs=false -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
