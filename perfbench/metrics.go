package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// metricDef names one reported metric. For an end-to-end metric bound is
// the share of the parent's median it may worsen by; for a per-layer
// metric moves says which end-to-end metric it should move, on which
// workload.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from its untraced phase.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_jps", unit: "jobs/s", better: "higher", bound: 0.05},
	{name: "goodput_jps", unit: "jobs/s", better: "higher", bound: 0.1},
	{name: "success_rate", unit: "ratio", better: "higher", bound: 0.01},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.1},
}

// perLayer are the single-layer metrics of the traced phase.
var perLayer = []metricDef{
	{name: "client.submit_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal and cluster-fanout"},
	{name: "client.poll_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms and cpu_ms_per_job on cluster-memo"},
	{name: "client.polls_per_job", unit: "count", better: "lower", moves: "latency_p50_ms and cpu_ms_per_job on cluster-memo"},
	{name: "client.detect_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on cluster-memo"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower", moves: "none: validity guard, must stay small on every workload"},
	{name: "loadgen.repeat_share", unit: "ratio", better: "higher", moves: "none: input property, ~0 on direct-wal and cluster-fanout, high on cluster-memo"},
	{name: "serve.queue_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "serve.queue_p95_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on direct-wal"},
	{name: "serve.run_p50_ms.align", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "serve.run_p50_ms.tree", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "serve.run_p50_ms.search", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "serve.run_p50_ms.grid", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "serve.run_p50_ms.sort", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "serve.run_p50_ms.pipeline", unit: "ms", better: "lower", moves: "latency_p95_ms on direct-wal"},
	{name: "serve.batch_size_mean", unit: "jobs", better: "higher", moves: "cpu_ms_per_job on direct-wal"},
	{name: "serve.utilization", unit: "ratio", better: "higher", moves: "throughput_jps on cluster-fanout"},
	{name: "serve.shed", unit: "count", better: "lower", moves: "success_rate on every workload"},
	{name: "qos.wait_p99_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on direct-wal"},
	{name: "qos.service_ewma_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on direct-wal"},
	{name: "store.fsyncs_per_job", unit: "count", better: "lower", moves: "latency_p50_ms on direct-wal, throughput_jps on cluster-fanout, nothing on cluster-memo"},
	{name: "store.records_per_fsync", unit: "count", better: "higher", moves: "throughput_jps on cluster-fanout"},
	{name: "store.fsync_p99_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on direct-wal"},
	{name: "store.bytes_per_job", unit: "B", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "store.append_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal, throughput_jps on cluster-fanout"},
	{name: "memo.hit_rate", unit: "ratio", better: "higher", moves: "latency_p50_ms and cpu_ms_per_job on cluster-memo"},
	{name: "memo.fills_per_job", unit: "count", better: "lower", moves: "cpu_ms_per_job on direct-wal"},
	{name: "memo.evictions", unit: "count", better: "lower", moves: "cpu_ms_per_job on cluster-memo"},
	{name: "memo.get_p50_us", unit: "us", better: "lower", moves: "latency_p50_ms on cluster-memo"},
	{name: "memoshare.peer_hits_per_lookup", unit: "ratio", better: "higher", moves: "cpu_ms_per_job on cluster-memo"},
	{name: "memoshare.fetch_failures", unit: "count", better: "lower", moves: "latency_p50_ms on cluster-memo"},
	{name: "cluster.queue_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on cluster-memo"},
	{name: "cluster.ship_overhead_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on cluster-memo and cluster-fanout"},
	{name: "cluster.attempts_per_job", unit: "count", better: "lower", moves: "throughput_jps on cluster-fanout"},
	{name: "cluster.saturated_replacements", unit: "count", better: "lower", moves: "latency_p95_ms on cluster-fanout"},
	{name: "cluster.placement_spread", unit: "ratio", better: "lower", moves: "latency_p95_ms on cluster-fanout"},
	{name: "cluster.pending_mean", unit: "jobs", better: "lower", moves: "throughput_jps on cluster-fanout"},
	{name: "bio.align_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal, nothing on cluster-memo"},
	{name: "bio.align_banded_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal, nothing on cluster-memo"},
	{name: "jobs.search_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "jobs.grid_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "jobs.sort_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "skel.tree_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on direct-wal"},
	{name: "pipeline.run_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on direct-wal"},
	{name: "proc.alloc_kb_per_job", unit: "KiB", better: "lower", moves: "cpu_ms_per_job on every workload, latency_p95_ms on direct-wal"},
	{name: "proc.gc_per_kjob", unit: "count", better: "lower", moves: "cpu_ms_per_job on every workload, latency_p95_ms on direct-wal"},
	{name: "proc.goroutines_end", unit: "count", better: "lower", moves: "none: leak guard, equals the start count"},
	{name: "trace.overhead_ms", unit: "ms", better: "lower", moves: "none: traced minus untraced latency_p50_ms"},
}

// snapshot is everything read just before or just after a phase: each
// daemon's /metrics and the process's CPU time and memory statistics.
type snapshot struct {
	serve []serve.MetricsSnapshot // per motifd, in daemons.workers order
	coord *cluster.MetricsSnapshot
	cpu   time.Duration
	mem   runtime.MemStats
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape reads GET /metrics from one daemon into v.
func scrape(ctx context.Context, l *listener, v any, sp *spans) error {
	var err error
	sp.timed("scrape "+l.name, "metrics", l.name, laneScrape, func() {
		var req *http.Request
		if req, err = http.NewRequestWithContext(ctx, http.MethodGet, l.url+"/metrics", nil); err != nil {
			return
		}
		var resp *http.Response
		if resp, err = scrapeClient.Do(req); err != nil {
			return
		}
		defer resp.Body.Close()
		var body []byte
		if body, err = io.ReadAll(resp.Body); err == nil {
			err = json.Unmarshal(body, v)
		}
	})
	if err != nil {
		return fmt.Errorf("scrape %s: %w", l.name, err)
	}
	return nil
}

// take reads every counter the run differences.
func (d *daemons) take(ctx context.Context, sp *spans) (*snapshot, error) {
	s := &snapshot{}
	if d.coordH != nil {
		s.coord = &cluster.MetricsSnapshot{}
		if err := scrape(ctx, d.coordH, s.coord, sp); err != nil {
			return nil, err
		}
	}
	for _, wk := range d.workers {
		var m serve.MetricsSnapshot
		if err := scrape(ctx, wk.http, &m, sp); err != nil {
			return nil, err
		}
		s.serve = append(s.serve, m)
	}
	s.cpu = cpuTime()
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// idCount is how many job ids a motifd has handed out: ids are sequential
// (j000001, j000002, ...) and every submission that gets one is counted
// either as admitted (queued or answered from the memo cache) or as shed.
func idCount(m serve.MetricsSnapshot) int { return int(m.Admitted + m.Shed) }

// workerStatuses returns the statuses of the jobs the motifds numbered between
// two snapshots and still hold in their history, which keeps the newest
// 1024 per motifd.
func workerStatuses(d *daemons, before, after *snapshot) []serve.JobStatus {
	var out []serve.JobStatus
	for i, wk := range d.workers {
		for n := idCount(before.serve[i]) + 1; n <= idCount(after.serve[i]); n++ {
			if j, ok := wk.srv.Job(fmt.Sprintf("j%06d", n)); ok {
				out = append(out, j.Status())
			}
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only on a bad pointer or an unknown who value.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the linear-interpolation quantile of xs (sorted in place);
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit returns every metric of defs from values, with its unit; a missing
// or non-finite value is a bug in the benchmark, not a measurement.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
