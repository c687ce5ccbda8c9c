# Local mirror of .github/workflows/ci.yml: `make ci` runs the exact CI
# steps (format gate, build, vet, tests with the process tests, race tests,
# bench smoke, kernel gate).

GO ?= go

.PHONY: ci fmt-check build vet staticcheck test perfbench-check race fuzz-smoke bench-smoke bench-kernel bench-gate bench-slo

ci: fmt-check build vet staticcheck test perfbench-check race fuzz-smoke bench-smoke bench-gate
	@echo "ci: all steps passed"

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it via
# dominikh/staticcheck-action); locally it degrades to a notice so `make ci`
# works on machines without the tool.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

# -count=1 bypasses the test cache, so a cached pass cannot hide red. The
# process tests in internal/e2e (real motifd/motifctl processes, SIGKILLed
# at observed states) run here; -short skips them.
test:
	$(GO) test -count=1 ./...

# perfbench is its own module (./... skips it); vet and short-test it
# because it compiles against the serve and cluster APIs.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test -short .

race:
	$(GO) test -race ./internal/memo/... ./internal/memoshare/... ./internal/skel/... ./internal/motifs/... ./internal/serve/... ./internal/cluster/... ./internal/store/... ./internal/bio/... ./internal/qos/... ./internal/jobs/... ./internal/pipeline/...

# fuzz-smoke runs each fuzz target briefly: the WAL targets exercise the
# mutator on the torn/corrupt seed corpus, the kernel target cross-checks
# the optimized Gotoh kernel against the full-matrix reference.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFrameAppendReplay -fuzztime=10s -run=NONE ./internal/store/
	$(GO) test -fuzz=FuzzSegmentReplay -fuzztime=10s -run=NONE ./internal/store/
	$(GO) test -fuzz=FuzzGotohKernel -fuzztime=10s -run=NONE ./internal/bio/

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-kernel re-measures the Gotoh kernel optimization phases (reference,
# rolling rows, pooled, banded — see internal/bio/OPTIMIZATION_PLAN.md) and
# rewrites the committed baseline BENCH_kernel.json.
bench-kernel:
	$(GO) run ./cmd/kernelbench -out BENCH_kernel.json

# bench-gate is the CI perf/alloc regression gate: re-measure the kernel
# phases and fail if any phase loses >15% of its committed speedup over the
# in-process reference kernel, or if allocs/op increase at all.
bench-gate:
	$(GO) run ./cmd/kernelbench -gate BENCH_kernel.json -runs 5

# bench-slo sweeps an open-loop Poisson load (thousands of Zipf-distributed
# tenants + one hostile flooder) across hostile rates with and without the
# qos scheduler, finds each mode's collapse point, and rewrites the
# committed BENCH_slo.json (goodput vs offered load, per-class p99 vs SLO,
# Jain fairness).
bench-slo:
	$(GO) run ./cmd/slobench -out BENCH_slo.json
