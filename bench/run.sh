#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload row-steady --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare a.jsonl b.jsonl
#
# The Go build and module caches, the build's temporary files and the
# tool configuration live under .bench_build/ in the current directory,
# so the build reads and writes nothing outside the checkout. Without
# the repository's own sources next to bench/ the build fails and the
# script exits non-zero.
#
# GOMAXPROCS is left alone, so the engine fans out across every
# processor, as it does by default. Transparent huge pages are turned
# off for the Go heap: they back it in some processes and not in
# others, which split set-up time into two modes from run to run.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GODEBUG="disablethp=1${GODEBUG:+,$GODEBUG}"

(cd "$root/bench" && go build -o "$build/dredbox-bench" .)
exec "$build/dredbox-bench" "$@"
