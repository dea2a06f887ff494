#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash benchmark/run.sh --workload re-serial --seed 1 --seconds 35
#
# Every build and run artifact (Go build cache, telemetry, binary, job
# journals, span files) stays under .bench_build/ in the current
# directory, and the build never touches the network.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "${root}/benchmark" && go build -o "${out}/revnicbench" .)
exec "${out}/revnicbench" "$@"
