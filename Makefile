# Reproduction targets for the register relocation paper.

GO ?= go

.PHONY: all build test test-race vet fmt-check lint-asm lint-asm-sarif bench bench-json bench-smoke bench-gate examples figures data data-check serve-smoke load-smoke cluster-smoke cluster-bench clean

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any tracked Go file is not gofmt-formatted. Listing tracked
# files keeps the check out of ignored build output such as
# .bench_build/, which perfbench/run.sh fills with a Go module cache.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: vet
	$(GO) test ./...

# Race-detect the concurrent experiment harness, the event queue it
# drives, the serving layer (queue + worker pool), the result store
# (internal/pointstore: stored reports, cross-job single-flight point
# coalescing), the cluster fan-out client (hedges, retries, prober),
# and the managed machine tier (the kernel's image memo and machine
# pool, shared by concurrent sweep workers).
test-race:
	$(GO) test -race ./internal/experiment/... ./internal/sim/... ./internal/serve/... ./internal/pointstore/... ./internal/cluster/... ./internal/kernel/... ./internal/machine/... ./cmd/rrserved/...

# End-to-end smoke test of the rrserved daemon: boot, submit a sweep
# over HTTP, poll to completion, check cache + metrics counters, drain
# via SIGTERM, then restart on the same store dir and check the
# resubmission is answered from the persisted report.
serve-smoke:
	./scripts/serve_smoke.sh

# Short load burst with rrload against a booted rrserved: overlapping
# grids, two tenants, admission control on, JSON snapshot checked.
load-smoke:
	./scripts/load_smoke.sh

# Distributed execution smoke test: the same sweep through a
# single-node daemon and a 1-coordinator/3-worker cluster must be
# byte-identical; also checks the point-cache lock, quorum readiness,
# cluster metrics, and an rrload burst (see docs/cluster.md).
cluster-smoke:
	./scripts/cluster_smoke.sh

# Cluster scaling benchmark under the -compute-rate capacity model:
# cold-sweep points/s through 1 node vs 3 workers, appended to
# BENCH_PR8.json as ServeLoad snapshots.
cluster-bench:
	./scripts/cluster_bench.sh

# Static-analyze every assembly routine the repo ships: the kernel
# runtime (Figure 3 switch, load/unload), the context allocators, the
# Multi-RRM manager stubs, and the example programs — in whole-program
# interprocedural mode (call graph, routine summaries, RR4xx hazards).
lint-asm:
	$(GO) run ./cmd/rrcheck -kernel -interproc
	$(GO) run ./cmd/rrcheck -interproc -ctx 8 examples/programs/fib.s
	$(GO) run ./cmd/rrcheck -interproc -ctx 32 examples/programs/pingpong.s

# Emit the whole-kernel analysis as SARIF for code scanning.
lint-asm-sarif:
	$(GO) run ./cmd/rrcheck -kernel -interproc -format sarif > rrcheck.sarif

# Regenerate every paper figure/table as benchmarks (metrics carry the
# efficiencies); mirrors the harness in bench_test.go.
bench:
	$(GO) test -bench=. -benchmem ./...

# Append a labelled snapshot of the tracked hot-path benchmarks to the
# trajectory file (see docs/performance.md for the format and the
# comparison workflow). Override either: make bench-json LABEL=tuned
LABEL ?= snapshot
BENCH_OUT ?= BENCH_PR10.json
bench-json:
	./scripts/bench_json.sh $(LABEL) $(BENCH_OUT)

# One-iteration pass over every benchmark: catches benchmarks that
# panic or no longer compile without paying for real measurement. CI
# runs this; it is not a performance measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Serving-throughput regression gate: the pinned serve benchmarks must
# stay within 15% of the best points/s recorded for this machine class
# in the committed BENCH_*.json trajectory (no history = pass).
bench-gate:
	./scripts/bench_gate.sh

# Run every example program.
examples:
	@for d in examples/*/; do \
		case $$d in examples/programs/) continue;; esac; \
		echo "=== $$d ==="; $(GO) run ./$$d || exit 1; \
	done

# Regenerate the ASCII figure plots under docs/figures.
figures:
	mkdir -p docs/figures
	$(GO) run ./cmd/rrsim -experiment figure5 -scale full -format plot > docs/figures/figure5.txt
	$(GO) run ./cmd/rrsim -experiment figure6 -scale full -format plot > docs/figures/figure6.txt
	$(GO) run ./cmd/rrsim -experiment scaling -scale full -format plot -panel P-sweep > docs/figures/scaling.txt
	$(GO) run ./cmd/rrsim -experiment cache-interference -scale full -format plot -panel utilization > docs/figures/cache-interference.txt

# Regenerate the per-experiment CSV data under docs/data.
data:
	mkdir -p docs/data
	$(GO) run ./cmd/rrsim -experiment all -scale full -format summary -o docs/data

# Check full-scale byte identity: every CSV under docs/data must be
# reproduced exactly by a fresh full-scale run (seed 1).
data-check:
	./scripts/data_check.sh

clean:
	rm -f test_output.txt bench_output.txt
