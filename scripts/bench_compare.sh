#!/usr/bin/env bash
# Guards the pinned benchmarks against ns/op regressions by measuring the
# base revision and the working tree on the same machine, in the same run:
# it checks the base out into a temporary git worktree, builds both sides'
# benchmark binaries, runs the pinned benchmarks alternately on each side
# (-count 1 per run, BENCH_COMPARE_COUNT runs per side), converts each side's
# transcript with benchjson, and diffs the pair with benchcompare. It fails on
# any >BENCH_REGRESSION_PCT% (default 15) regression of best-of-N ns/op, and
# on a pinned benchmark the base has but the working tree lacks.
#
# Needs the base commit in the clone (CI checks out with fetch-depth: 0).
#
# Environment:
#   BENCH_BASE             base revision (default: git merge-base HEAD
#                          origin/main, or HEAD^ when that is HEAD itself)
#   BENCH_REGRESSION_PCT   regression threshold in percent (default 15)
#   BENCH_COMPARE_MATCH    comma-separated benchmark name substrings
#                          (default the pinned sweep benchmarks)
#   BENCH_COMPARE_TIME     -benchtime of each run (default 50x)
#   BENCH_COMPARE_COUNT    runs per side, alternated (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

PCT=${BENCH_REGRESSION_PCT:-15}
MATCH=${BENCH_COMPARE_MATCH:-SweepPlanCache,ScanPositions,BatchQ2_ParallelSweep}
TIME=${BENCH_COMPARE_TIME:-50x}
COUNT=${BENCH_COMPARE_COUNT:-5}
# The pinned benchmarks live in the repro root package (SweepPlanCache,
# BatchQ2_ParallelSweep) and internal/core (ScanPositions).
PKGS=(. ./internal/core)

base=${BENCH_BASE:-}
if [[ -z "$base" ]]; then
  base=$(git merge-base HEAD origin/main 2>/dev/null || true)
  if [[ -z "$base" || "$base" == "$(git rev-parse HEAD)" ]]; then
    base=HEAD^
  fi
fi
base=$(git rev-parse --verify "$base^{commit}")

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/base" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach "$work/base" "$base" >/dev/null 2>&1
echo "bench_compare: base $(git rev-parse --short "$base") vs working tree" >&2

# build <tree> <side>: one benchmark binary per pinned package. -trimpath
# keeps the checkout path out of the binary, so a package whose sources did
# not change builds to identical machine code on both sides.
build() {
  local i
  for i in "${!PKGS[@]}"; do
    (cd "$1" && go test -c -trimpath -o "$work/$2.$i.test" "${PKGS[$i]}")
  done
}
# run <tree> <side>: one -count 1 pass of the pinned benchmarks, appended to
# the side's transcript. Binaries run from their package directory, as
# `go test` would run them.
run() {
  local i
  for i in "${!PKGS[@]}"; do
    (cd "$1/${PKGS[$i]}" && "$work/$2.$i.test" -test.run XXX -test.bench "${MATCH//,/|}" \
      -test.benchtime "$TIME" -test.count 1 -test.timeout 10m) | tee -a "$work/$2.out"
  done
}

build "$work/base" base
build . head
for ((r = 0; r < COUNT; r++)); do
  # Alternate which side goes first so slow drift hits both equally.
  if ((r % 2 == 0)); then
    run "$work/base" base
    run . head
  else
    run . head
    run "$work/base" base
  fi
done
go run ./internal/tools/benchjson -in "$work/base.out" -out "$work/base.json"
go run ./internal/tools/benchjson -in "$work/head.out" -out "$work/head.json"
go run ./internal/tools/benchcompare \
  -baseline "$work/base.json" -current "$work/head.json" -pct "$PCT" -match "$MATCH"
