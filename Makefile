GO ?= go

# Where machine-readable benchmark reports land. Override per-figure, e.g.
#   make perf BENCH_OUT=BENCH_2.json
#   make bench-serve BENCH_OUT=BENCH_3.json
BENCH_OUT ?= bench.json

.PHONY: all tier1 verify bench perf bench-serve bench-pack bench-load fmt clean

all: verify

# Tier-1 gate: what CI and the roadmap require at minimum.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Full verify path: tier-1 plus static checks, the race detector over the
# concurrent packages (the solver, the batched decode pool, and the serving
# daemon), and the benchmark module under perfbench/, which is its own Go
# module and so is not built by tier-1's ./... patterns. The arm64 vet keeps
# internal/nn's pure-Go kernel path (used wherever there is no assembly
# kernel) compiling; on amd64, vet's asmdecl pass checks the assembly frame.
verify: tier1
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn/
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	GOMAXPROCS=4 $(GO) test -race ./internal/core/... ./internal/smt/... ./internal/nn/... ./internal/server/... ./internal/router/... ./internal/prefixcache/... ./internal/pack/...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Kernel microbenchmarks (vs seed-copy references) plus the perf figure,
# which writes the machine-readable report.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...
	$(GO) run ./cmd/lejit-bench -scale tiny -fig perf -json $(BENCH_OUT)

# Regenerate just the machine-readable perf report.
perf:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig perf -json $(BENCH_OUT)

# Serving load test: end-to-end HTTP throughput/latency through lejitd's
# micro-batching queue (BENCH_3.json in the committed tree), plus the
# warm-vs-cold prefix-cache comparison (BENCH_5.json).
bench-serve:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig serve -json $(BENCH_OUT)

# Domain-pack benchmark (BENCH_7.json in the committed tree): one lejitd
# serving the telemetry, routercfg, and fincompliance packs under a mixed
# workload with a fincompliance rule hot-reload fired halfway through.
bench-pack:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig pack -json $(BENCH_OUT)

# Open-loop load sweep (BENCH_9.json in the committed tree): Poisson
# arrivals against lejitd fleets of 1, 2, and 4 engine shards at 4 offered
# rates, half the requests streamed over SSE. lejit-bench itself hard-fails
# unless streamed==unary bit-identity holds and zero mis-seeded/stale-epoch
# responses were observed. LOAD_CONNS caps in-flight connections (CI uses a
# small cap; the default exercises 10k).
LOAD_CONNS ?= 10000
bench-load:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig load -json $(BENCH_OUT) -load-conns $(LOAD_CONNS)

fmt:
	gofmt -w .

clean:
	rm -f lejit lejitd repro.test
