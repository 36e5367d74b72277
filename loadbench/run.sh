#!/usr/bin/env bash
# Builds cpserve and the load generator from this checkout, then runs one
# benchmark pass. Run from the repository root:
#
#   bash loadbench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, cpserve data directories
# and logs) stays under loadbench/.build and loadbench/.work.
set -euo pipefail

root=$(pwd)
bench="$root/loadbench"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cpserve" ]]; then
	echo "run.sh: $root is not the repository root (no go.mod or cmd/cpserve)" >&2
	exit 2
fi
build="$bench/.build"
mkdir -p "$build/tmp" "$bench/.work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	GOENV=off

# Build to per-process names, then rename, so concurrent runs never execute
# a half-written binary.
go build -o "$build/cpserve.$$" ./cmd/cpserve >&2
mv -f "$build/cpserve.$$" "$build/cpserve"
(cd "$bench" && go build -o "$build/loadbench.$$" .) >&2
mv -f "$build/loadbench.$$" "$build/loadbench"

exec "$build/loadbench" -cpserve "$build/cpserve" -workdir "$bench/.work" "$@"
