GO ?= go

.PHONY: build test vet race lint verify bench bench-live bench-predict bench-obs bench-wire bench-trace fuzz-short

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
		./internal/slo/...

# lint is the static-analysis gate: gofmt, go vet, and wlmlint — the suite
# that machine-checks hotpath allocation-freedom and non-blocking closure
# over the call graph, atomic field discipline (direct and interprocedural),
# lock-order cycle freedom, replay determinism, and mutex guard contracts
# (DESIGN.md section 10). wlmlint parallelizes across GOMAXPROCS; set
# LINT_JSON=1 for machine-readable findings.
lint:
	./scripts/lint.sh

# verify is the tier-1 gate: build, then the parallel lint gate before the
# test suite (static findings are cheaper than test failures), full tests,
# and a race pass over the parallel experiment fan-out and the live runtime.
verify: build lint test race

# bench records kernel performance (engine benchmark ns/op + allocs/op and
# benchtables wall time at GOMAXPROCS 1 and 2) into BENCH_kernel.json.
bench:
	./scripts/bench_kernel.sh

# bench-live records live-runtime admission throughput (BenchmarkLiveAdmit at
# GOMAXPROCS 1/2/4/8, allocs/op) into BENCH_live.json. Fails if the steady-
# state admit path ever allocates.
bench-live:
	./scripts/bench_live.sh

# bench-predict records the wire-speed prediction pipeline (predict-admit
# ns/op and allocs, plan-cache hit/miss cost, linear vs indexed k-NN) into
# BENCH_predict.json.
bench-predict:
	./scripts/bench_predict.sh

# bench-obs prices the flight recorder and the SLO engine on the admission
# hot paths (off vs on, ns/op and allocs) into BENCH_obs.json. Fails if the
# recorder-off path allocates or regresses >5% against BENCH_predict.json,
# if the recorder overhead exceeds 250 ns / 1 alloc per admit+done cycle, or
# if the SLO engine adds more than 100 ns or any allocation to that cycle.
bench-obs:
	./scripts/bench_obs.sh

# bench-wire records batched wire-protocol throughput vs single-op HTTP-JSON
# (wlmd + wlmload at GOMAXPROCS 1/2/4/8, batch 1/16/256) into BENCH_wire.json.
# Fails if the codec or batch dispatch allocates, or if the binary path falls
# under 5x the HTTP-JSON decisions/sec at batch 256.
bench-wire:
	./scripts/bench_wire.sh

# bench-trace records trace streaming-decode throughput, the compressed
# what-if replay comparison, compression throughput across a GOMAXPROCS
# matrix, and the pooled what-if fan-out into BENCH_trace.json. Fails if the
# binary decode allocates or falls under 1M rows/sec, if the compressed
# replay is under 10x faster than the full replay, if its divergence exceeds
# the bound, if compression falls under the rows/sec floor at any proc
# count, or if pooled replays allocate more than the fraction of fresh ones.
bench-trace:
	./scripts/bench_trace.sh

# fuzz-short smoke-fuzzes the SQL pipeline (lexer/parser/planner/fingerprint),
# the wire-frame decoder, both trace encodings, the bounded k-means kernel
# against its brute-force reference, and the selection-built k-d tree against
# the sort-built one — enough to shake out panics and bit mismatches without
# stalling CI. The trace patterns are anchored because the package has two
# targets.
fuzz-short:
	$(GO) test -fuzz FuzzParse -fuzztime 10s -run '^$$' ./internal/sqlmini/
	$(GO) test -fuzz FuzzDecode -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz '^FuzzTraceDecode$$' -fuzztime 10s -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzTraceJSONL$$' -fuzztime 10s -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzKMeansFlatMatchesReference -fuzztime 10s -run '^$$' ./internal/learn/
	$(GO) test -fuzz FuzzKDBuildMatchesReference -fuzztime 10s -run '^$$' ./internal/learn/
