#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash _e2ebench/run.sh --workload fleet-read --seed 1 --seconds 32 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (CARGO_TARGET_DIR, when set, names that directory).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" --workdir "$out/e2ebench-work" "$@"
