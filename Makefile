# Local mirror of .github/workflows/ci.yml: `make ci` runs the exact CI
# steps (format gate, build, vet, tests, race tests, bench smoke).

GO ?= go

.PHONY: ci fmt-check build vet staticcheck test perfbench-check race fuzz-smoke bench-smoke bench motifd-smoke cluster-smoke recovery-smoke pipeline-smoke qos-smoke ha-smoke motif-jobs-smoke bench-cluster bench-memo bench-kernel bench-gate bench-slo

ci: fmt-check build vet staticcheck test perfbench-check race fuzz-smoke bench-smoke motifd-smoke cluster-smoke recovery-smoke pipeline-smoke qos-smoke ha-smoke motif-jobs-smoke bench-gate
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

test:
	$(GO) test ./...

# perfbench is its own module (./... skips it); vet and short-test it
# because it compiles against the serve and cluster APIs.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test -short .

race:
	$(GO) test -race ./internal/memo/... ./internal/memoshare/... ./internal/skel/... ./internal/motifs/... ./internal/serve/... ./internal/cluster/... ./internal/store/... ./internal/bio/... ./internal/qos/... ./internal/jobs/...

# fuzz-smoke runs each fuzz target briefly: the WAL targets exercise the
# mutator on the torn/corrupt seed corpus, the kernel target cross-checks
# the optimized Gotoh kernel against the full-matrix reference.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFrameAppendReplay -fuzztime=10s -run=NONE ./internal/store/
	$(GO) test -fuzz=FuzzSegmentReplay -fuzztime=10s -run=NONE ./internal/store/
	$(GO) test -fuzz=FuzzGotohKernel -fuzztime=10s -run=NONE ./internal/bio/

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench load-tests the serving layer at 1/4/16 concurrent clients against an
# in-process motifd — one align, one search, and one grid row per level —
# and writes the throughput/latency report.
bench:
	$(GO) run ./cmd/alignbench -serve self -clients 1,4,16 -jobs 48 -search -grid -out BENCH_serve.json

# motifd-smoke mirrors the CI smoke step: start the daemon, submit a job,
# assert it completes, drain.
motifd-smoke:
	./scripts/motifd_smoke.sh

# cluster-smoke mirrors the CI cluster step: coordinator + 2 workers,
# submit a batch, SIGKILL one worker mid-run, assert zero lost jobs.
cluster-smoke:
	./scripts/cluster_smoke.sh

# recovery-smoke mirrors the CI durability step: SIGKILL the coordinator
# mid-batch and a motifd mid-reduction, restart both against their WAL
# directories, assert zero lost / duplicated jobs and a checkpointed resume.
recovery-smoke:
	./scripts/recovery_smoke.sh

# pipeline-smoke mirrors the CI streaming-pipeline step: SIGKILL motifd
# mid-NDJSON-stream, restart on the same WAL, assert the job resumes from
# the deepest completed stage and replays a byte-identical stream.
pipeline-smoke:
	./scripts/pipeline_smoke.sh

# qos-smoke mirrors the CI multi-tenant QoS step: motifd -qos threads the
# X-Motif-Tenant/X-Motif-Class identity through to the job view and the
# /metrics qos block, then slobench -smoke saturates a qos-enabled server
# and asserts tenant isolation (gold p99 within SLO, hostile tenant shed).
qos-smoke:
	./scripts/qos_smoke.sh

# ha-smoke mirrors the CI coordinator-failover step: active + standby
# motifctl on one WAL, SIGKILL the active mid-batch, assert the standby
# takes over the lease, workers re-register, and no job is lost or
# duplicated.
ha-smoke:
	./scripts/ha_smoke.sh

# motif-jobs-smoke mirrors the CI motif-jobs step: search/grid/sort job
# types against motifd with -store, SIGKILL mid-search inside the settle
# window, restart and assert the journaled shortcircuit decision is honored;
# then a 2-worker cluster where killing the worker holding a terminated
# search makes the retry a no-op (completed from the harvested decision).
motif-jobs-smoke:
	./scripts/motif_jobs_smoke.sh

# bench-cluster measures cluster scheduling at 1/2/4 workers and writes
# the per-scale throughput/latency report.
bench-cluster:
	./scripts/bench_cluster.sh BENCH_cluster.json

# bench-memo measures the content-addressed cache end to end: each client
# level runs cold (computing every alignment) then warm (answered from the
# daemon's cache over the same job seeds), reporting the warm-over-cold
# speedup and warm-pass hit-rate.
bench-memo:
	$(GO) run ./cmd/alignbench -serve self -memo 67108864 -clients 1,4,16 -jobs 48 -out BENCH_memo.json

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
