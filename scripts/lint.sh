#!/bin/sh
# lint.sh — the static-analysis gate: gofmt, go vet, and wlmlint.
#
# wlmlint (cmd/wlmlint) machine-checks the module's own invariants: hotpath
# allocation-freedom and non-blocking closure over the static call graph,
# sync/atomic field discipline (direct and through helpers), lock-order
# cycle freedom, replay determinism, mutex guard contracts, and the coupling
# between AllocsPerRun==0 tests and //dbwlm:hotpath annotations. Run via
# `make lint` from the repository root; `make verify` runs it before the
# test suite. Set LINT_JSON=1 to emit findings as the stable JSON array
# instead of text (for CI annotators); either way the exit code gates.
set -eu

cd "$(dirname "$0")/.."

# gofmt over the whole tree, fixture corpus included (fixtures are real
# parsed Go and drift just as easily).
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

go vet ./...

# cmd/wlmbench is the one instrument (BENCHMARK.json). The shell bench
# scripts and BENCH_*.json files it replaced must not be half-resurrected by a
# stray reference; CHANGES.md, ROADMAP.md, ISSUE.md and internal/bench keep
# them as history.
if git grep -nE 'BENCH_[a-z]+\.json|scripts/bench_|bench_[a-z]+\.sh|BENCH_SMP' -- \
	'*.md' '*.go' Makefile \
	':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!internal/bench/'; then
	echo "lint: reference to the retired bench scripts or BENCH_*.json files; cite cmd/wlmbench instead" >&2
	exit 1
fi

# Analysis fans out across GOMAXPROCS workers; output is byte-identical at
# any worker count, so parallelism is always safe to leave on.
if [ "${LINT_JSON:-0}" = "1" ]; then
	go run ./cmd/wlmlint -json -time ./...
else
	go run ./cmd/wlmlint -time ./...
fi
