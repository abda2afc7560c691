GO ?= go

.PHONY: build test vet race lint verify bench fuzz-short loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/experiments/... ./internal/rt/... ./cmd/wlmd/... \
		./internal/admission/... ./internal/sqlmini/... ./internal/obsv/... \
		./internal/rthttp/... ./internal/metrics/... ./internal/wire/... \
		./cmd/wlmload/... ./internal/trace/... ./internal/learn/... \
		./internal/slo/... ./internal/engine/... ./internal/scheduling/... \
		./internal/workload/... ./internal/sim/... ./internal/fifo/... \
		./internal/execctl/... ./internal/governor/... .

# lint is the static-analysis gate: gofmt, go vet, and wlmlint — the suite
# that machine-checks allocation-freedom and non-blocking of everything
# reachable from a hotpath root, typed atomics only, no nested locking,
# replay determinism, and mutex guard contracts (DESIGN.md section 10). wlmlint parallelizes across GOMAXPROCS; set
# LINT_JSON=1 for machine-readable findings.
lint:
	./scripts/lint.sh

# verify is the tier-1 gate: build, then the parallel lint gate before the
# test suite (static findings are cheaper than test failures), full tests,
# and a race pass over the parallel experiment fan-out and the live runtime.
verify: build lint test race

# bench runs the repo's one benchmark (BENCHMARK.json): every named workload
# of cmd/wlmbench, end-to-end metrics plus the per-layer budget, on a stamped
# host. See internal/bench/README.md.
bench:
	$(GO) run ./cmd/wlmbench

# fuzz-short smoke-fuzzes the SQL pipeline (lexer/parser/planner/fingerprint),
# the lexer and the fingerprint against their reference implementations, the
# wire-frame decoder, the buffered frame reader against the two-read reference
# under random read chunking,
# the binary trace decoder (the one trace encoding), the k-means kernel (pruned seeding that supplies the
# first Lloyd pass, Yinyang group bounds, incremental separations) against
# its brute-force reference, the selection-built k-d tree against the
# sort-built one, and
# table-backed k-NN prediction against the linear scan, the owned
# flight-recorder ring against the seqlock reference ring, the concurrent
# histogram's bucket table and owned record against the logarithm and
# the per-field-atomic reference, the sequential histogram's bucket
# table against the logarithm, the engine's deadlock sweep against the
# map-keyed reference on random wait-for graphs, the Priority and SJF
# heaps against the closure-ordered reference under forced ties, and the
# execution controllers' ID-ordered lists against the map-and-sort
# references under random manage, kill, sweep and finish steps — enough to
# shake out panics and bit mismatches without stalling CI. The wire and trace patterns
# are anchored because those packages have two targets.
fuzz-short:
	$(GO) test -fuzz FuzzParse -fuzztime 10s -run '^$$' ./internal/sqlmini/
	$(GO) test -fuzz FuzzLexMatchesReference -fuzztime 10s -run '^$$' ./internal/sqlmini/
	$(GO) test -fuzz FuzzFingerprintMatchesReference -fuzztime 10s -run '^$$' ./internal/sqlmini/
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz '^FuzzFrameConnChunking$$' -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz '^FuzzTraceDecode$$' -fuzztime 10s -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzKMeansFlatMatchesReference -fuzztime 10s -run '^$$' ./internal/learn/
	$(GO) test -fuzz FuzzKDBuildMatchesReference -fuzztime 10s -run '^$$' ./internal/learn/
	$(GO) test -fuzz FuzzKNNMemoMatchesLinear -fuzztime 10s -run '^$$' ./internal/learn/
	$(GO) test -fuzz FuzzRecorderMatchesReference -fuzztime 10s -run '^$$' ./internal/obsv/
	$(GO) test -fuzz FuzzStripedBucketIndexMatchesFormula -fuzztime 10s -run '^$$' ./internal/metrics/
	$(GO) test -fuzz FuzzStripedHistogramMatchesReference -fuzztime 10s -run '^$$' ./internal/metrics/
	$(GO) test -fuzz FuzzHistogramBucketIndexMatchesFormula -fuzztime 10s -run '^$$' ./internal/metrics/
	$(GO) test -fuzz FuzzDetectDeadlockMatchesReference -fuzztime 10s -run '^$$' ./internal/engine/
	$(GO) test -fuzz FuzzItemHeapMatchesReference -fuzztime 10s -run '^$$' ./internal/scheduling/
	$(GO) test -fuzz FuzzManagedListMatchesMap -fuzztime 10s -run '^$$' ./internal/execctl/

# loc prints non-test Go lines per package and in total. The benchmark
# (internal/bench, cmd/wlmbench) and the lint fixture corpus are not product
# and are left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './internal/bench/*' ! -path './cmd/wlmbench/*' ! -path './internal/lint/testdata/*' ! -path './.bench_build/*' | sort | xargs wc -l | awk '$$2 == "total" { next } { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
