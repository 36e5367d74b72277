GO ?= go

.PHONY: build vet test race fuzz bench bench-compare verify verify-static verify-docs clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on catches order-dependent tests (the session store keeps
# cross-test state candidates: tombstones, reaper timing).
test:
	$(GO) test -shuffle=on ./...

# Race-check everything. The concurrency lives in serve (shared engines +
# pooled scratches, and the follower's apply-vs-query seam), replica (the
# tailer loop vs Status/Close), cleaning, selection (parallel hypothesis
# sweeps), durable (group-commit flusher vs concurrent appenders), and
# segtree — but ./... costs little more and catches races that leak across
# package boundaries (e.g. a serve test driving the WAL).
race:
	$(GO) test -race -shuffle=on ./...

# Differential fuzzing of Q2: Counts, CountsMC, the span-parallel sweep and
# Retained against brute force under random pin sequences, for 30 s; then
# the radix scan order against the MoreSimilar comparator sort, for 10 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzQ2MatchesBruteForce$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCandidateOrder$$' -fuzztime 10s ./internal/core

# One iteration per benchmark (a smoke pass), with the raw transcript kept
# in bench.out and a machine-readable summary (name, ns/op, custom metrics
# like scans/op) in BENCH_<date>.json for trend tracking / CI artifacts.
# Two sequenced commands, not a pipe, so a benchmark failure fails the
# target instead of being masked by the parser's exit code.
BENCH_JSON = BENCH_$(shell date +%Y-%m-%d).json

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./... > bench.out || (cat bench.out; exit 1)
	@cat bench.out
	$(GO) run ./internal/tools/benchjson -in bench.out -out $(BENCH_JSON)
	@echo "bench: wrote $(BENCH_JSON)"

# Run the pinned sweep benchmarks alternately on the merge-base (a temporary
# git worktree) and the working tree; fails on a >15% ns/op regression
# (override with BENCH_REGRESSION_PCT) or a pinned benchmark gone missing.
bench-compare:
	./scripts/bench_compare.sh

# Docs stay honest: vet catches comment drift, docverify extracts every
# ```go fence from the README and architecture doc and builds it against
# the current module.
verify-docs: vet
	$(GO) run ./internal/tools/docverify README.md docs/ARCHITECTURE.md

# Static analysis: the project-invariant analyzer suite (cpvet, always —
# stdlib-only, so it runs anywhere the toolchain does), then staticcheck and
# govulncheck when their binaries are installed (CI installs them; offline
# dev boxes skip with a note rather than failing the target).
verify-static:
	$(GO) run ./cmd/cpvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "verify-static: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "verify-static: govulncheck not installed; skipping"; fi

# Tier-1 gate plus the race suite, static analysis, and the docs check
# (which runs vet).
verify: build test race verify-static verify-docs

clean:
	rm -f cpbench cpclean cpquery cpserve datagen *.test *.prof bench.out BENCH_*.json
