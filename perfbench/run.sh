#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments from the repository root:
#
#   bash perfbench/run.sh --workload olap-tuple --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run leave behind goes under .bench_build/
# in the repository root (the Go build cache included); spill files of
# the served workload go to .bench_build/spill/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/spill"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --spill-dir "$out/spill" "$@"
