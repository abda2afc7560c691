#!/bin/sh
# lint.sh — the static-analysis gate: gofmt, go vet, and wlmlint.
#
# wlmlint (cmd/wlmlint) machine-checks the module's own invariants with six
# analyzers: allocation-freedom and non-blocking of everything reachable from
# a //dbwlm:hotpath root (hotpath), typed atomics only (atomic), no nested
# locking (lockorder), replay determinism (detlint), mutex guard contracts
# (guardedby), and the coupling between AllocsPerRun==0 tests and the hot
# closure (noescape-test). Run via
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

# The analyzer names wlmlint retired (their rules live on, stronger, under
# hotpath, atomic and lockorder) must not come back in a waiver, a -run list
# or a doc: an unknown name in a //dbwlm:nolint voids the waiver. (The
# bracketed letters keep the pattern from matching this file.)
if git grep -nE 'hot[c]losure|atomic[f]ield|atomic[m]ix' -- \
	':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then
	echo "lint: reference to a retired wlmlint analyzer name; the analyzers are hotpath, atomic, detlint, guardedby, lockorder, noescape-test" >&2
	exit 1
fi

# Analysis fans out across GOMAXPROCS workers; output is byte-identical at
# any worker count, so parallelism is always safe to leave on.
if [ "${LINT_JSON:-0}" = "1" ]; then
	go run ./cmd/wlmlint -json -time ./...
else
	go run ./cmd/wlmlint -time ./...
fi
