#!/usr/bin/env bash
# Builds xdmperf from source and runs it on one workload, from the
# repository root:
#
#   bash bench/run.sh --workload node-swap --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the repository root:
# the binary and the Go build cache in .bench_build/, the traced run's
# trace and profiles in .bench_out/. Without the repository's sources the
# build fails and the script exits non-zero before printing any result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/xdmperf" ./xdmperf)
cd "$root"
exec "$build/xdmperf" "$@"
