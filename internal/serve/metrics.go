package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/memoshare"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/qos"
	"repro/internal/store"
)

// latencyBoundsMicros buckets end-to-end job latencies (admission →
// completion) from 100µs to 30s: a cluster job's ship round trips and
// retries reach past a local one's.
var latencyBoundsMicros = []int64{
	100, 250, 500,
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
}

// counters is a host's admission and outcome accounting.
type counters struct {
	admitted  atomic.Int64
	shed      atomic.Int64
	preempted atomic.Int64 // queued jobs evicted for higher-class arrivals
	rejected  atomic.Int64 // malformed requests (400s)
	deduped   atomic.Int64 // resubmissions answered from the dedup table
	collapsed atomic.Int64 // submissions attached to an identical in-flight job
	cacheHits atomic.Int64 // submissions answered from the executor's cache
	done      atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	latency *metrics.Histogram
}

func (m *counters) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.latency.Observe(d.Microseconds())
	m.mu.Unlock()
}

func (m *counters) latencySummary() LatencySummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return LatencySummary{
		Count:  m.latency.Count(),
		MeanMS: m.latency.Mean() / 1000,
		P50MS:  m.latency.Quantile(0.50) / 1000,
		P95MS:  m.latency.Quantile(0.95) / 1000,
		P99MS:  m.latency.Quantile(0.99) / 1000,
		MaxMS:  float64(m.latency.Max()) / 1000,
	}
}

// poolMetrics is the skeleton pool's accounting: batching, per-worker
// busy/idle time and the motif job types' outcomes.
type poolMetrics struct {
	inflight atomic.Int64

	batchDispatches atomic.Int64
	batchedJobs     atomic.Int64
	maxBatch        atomic.Int64

	motif motifMetrics

	workers []workerStat
}

// workerStat tracks one pool worker's busy/idle accounting.
type workerStat struct {
	jobs       atomic.Int64
	busyMicros atomic.Int64
	// busySince is the wall time (µs since pool start) the worker went
	// busy, 0 while idle.
	busySince atomic.Int64
}

func newPoolMetrics(workers int) *poolMetrics {
	return &poolMetrics{workers: make([]workerStat, workers)}
}

// workerBusy and workerIdle take the host clock's now (µs since start).
func (m *poolMetrics) workerBusy(w int, now int64) {
	if now == 0 {
		now = 1 // 0 means idle; never record a zero busy-start
	}
	m.workers[w].busySince.Store(now)
}

func (m *poolMetrics) workerIdle(w int, now int64) {
	since := m.workers[w].busySince.Swap(0)
	if since > 0 {
		m.workers[w].busyMicros.Add(now - since)
	}
}

func (m *poolMetrics) recordBatch(size int) {
	m.batchDispatches.Add(1)
	m.batchedJobs.Add(int64(size))
	for {
		cur := m.maxBatch.Load()
		if int64(size) <= cur || m.maxBatch.CompareAndSwap(cur, int64(size)) {
			return
		}
	}
}

// motifMetrics counts the motif job types' outcomes: completions, work
// units, early terminations, and resumes from journaled state.
type motifMetrics struct {
	searchDone, searchUnits, searchTerminated, searchResumedDecisions atomic.Int64
	gridDone, gridUnits, gridConverged, gridResumedSweeps             atomic.Int64
	sortDone, sortUnits, sortResumedPaths                             atomic.Int64
}

// MotifSearchStats is the search block of /metrics.
type MotifSearchStats struct {
	Done  int64 `json:"done"`
	Units int64 `json:"units"`
	// Terminated counts searches stopped by the or-parallel cut;
	// ResumedDecisions the completions answered from a journaled
	// shortcircuit decision instead of re-exploring.
	Terminated       int64 `json:"terminated"`
	ResumedDecisions int64 `json:"resumed_decisions"`
}

// MotifGridStats is the grid block of /metrics.
type MotifGridStats struct {
	Done          int64 `json:"done"`
	Units         int64 `json:"units"`
	Converged     int64 `json:"converged"`
	ResumedSweeps int64 `json:"resumed_sweeps"`
}

// MotifSortStats is the sort block of /metrics.
type MotifSortStats struct {
	Done         int64 `json:"done"`
	Units        int64 `json:"units"`
	ResumedPaths int64 `json:"resumed_paths"`
}

// MotifSnapshot is the per-type motif-jobs block of /metrics.
type MotifSnapshot struct {
	Search MotifSearchStats `json:"search"`
	Grid   MotifGridStats   `json:"grid"`
	Sort   MotifSortStats   `json:"sort"`
}

// observe accumulates one finished job's result block into the per-type
// block.
func (m *motifMetrics) observe(r *Results) {
	switch {
	case r.Search != nil:
		m.searchDone.Add(1)
		m.searchUnits.Add(r.Search.Units)
		if r.Search.Terminated {
			m.searchTerminated.Add(1)
		}
		if r.Search.ResumedDecision {
			m.searchResumedDecisions.Add(1)
		}
	case r.Grid != nil:
		m.gridDone.Add(1)
		m.gridUnits.Add(r.Grid.Units)
		if r.Grid.Converged {
			m.gridConverged.Add(1)
		}
		m.gridResumedSweeps.Add(int64(r.Grid.ResumedSweeps))
	case r.Sort != nil:
		m.sortDone.Add(1)
		m.sortUnits.Add(r.Sort.Units)
		m.sortResumedPaths.Add(r.Sort.ResumedPaths)
	}
}

func (m *motifMetrics) snapshot() *MotifSnapshot {
	snap := &MotifSnapshot{
		Search: MotifSearchStats{
			Done:             m.searchDone.Load(),
			Units:            m.searchUnits.Load(),
			Terminated:       m.searchTerminated.Load(),
			ResumedDecisions: m.searchResumedDecisions.Load(),
		},
		Grid: MotifGridStats{
			Done:          m.gridDone.Load(),
			Units:         m.gridUnits.Load(),
			Converged:     m.gridConverged.Load(),
			ResumedSweeps: m.gridResumedSweeps.Load(),
		},
		Sort: MotifSortStats{
			Done:         m.sortDone.Load(),
			Units:        m.sortUnits.Load(),
			ResumedPaths: m.sortResumedPaths.Load(),
		},
	}
	if snap.Search.Done == 0 && snap.Grid.Done == 0 && snap.Sort.Done == 0 {
		return nil
	}
	return snap
}

// LatencySummary is the latency block of the /metrics JSON document.
type LatencySummary struct {
	Count    int64   `json:"count"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
	Overflow bool    `json:"-"`
}

// WorkerSummary is one row of the per-worker block of /metrics.
type WorkerSummary struct {
	Worker      int     `json:"worker"`
	Jobs        int64   `json:"jobs"`
	BusyMS      float64 `json:"busy_ms"`
	Busy        bool    `json:"busy"`
	Utilization float64 `json:"utilization"`
}

// HostMetrics is a host's block of its daemon's /metrics document, keys
// in place: motifd's and motifctl's alike.
type HostMetrics struct {
	UptimeMS  float64 `json:"uptime_ms"`
	Shed      int64   `json:"shed"`
	Preempted int64   `json:"preempted"`
	Rejected  int64   `json:"rejected"`
	Deduped   int64   `json:"deduped"`
	Collapsed int64   `json:"collapsed"`
	// Done, Failed and Latency count outcomes, not refusals.
	Done        int64          `json:"done"`
	Failed      int64          `json:"failed"`
	Latency     LatencySummary `json:"latency"`
	TraceEvents int64          `json:"trace_events"`
	// Store is the durability block; absent when no store is configured.
	Store *store.MetricsSnapshot `json:"store,omitempty"`
	// QoS is the tenant-aware admission block: scheduling mode, per-tenant
	// admitted/shed/preempted counts, queue depths, and wait percentiles.
	QoS *qos.Snapshot `json:"qos,omitempty"`
}

// MetricsSnapshot is motifd's /metrics JSON document.
type MetricsSnapshot struct {
	HostMetrics
	Workers       int             `json:"workers"`
	QueueDepth    int             `json:"queue_depth"`
	QueueCapacity int             `json:"queue_capacity"`
	Admitted      int64           `json:"admitted"`
	MemoJobHits   int64           `json:"memo_job_hits"`
	Inflight      int64           `json:"inflight"`
	PerWorker     []WorkerSummary `json:"per_worker"`
	Batch         BatchSummary    `json:"batch"`
	// Memo is the content-addressed cache block; absent when memoization
	// is disabled.
	Memo *memo.StatsSnapshot `json:"memo,omitempty"`
	// Memoshare is the peer memo-tier block (entries served to peers,
	// local misses answered by peer fetch); absent when memoization is
	// disabled.
	Memoshare *memoshare.Stats `json:"memoshare,omitempty"`
	// Pipeline is the per-stage streaming-pipeline block; absent until a
	// pipeline job has run.
	Pipeline *pipeline.MetricsSnapshot `json:"pipeline,omitempty"`
	// Motif is the per-type block for the search/grid/sort job types;
	// absent until one of them has run.
	Motif *MotifSnapshot `json:"motif,omitempty"`
}

// BatchSummary is the batching block of /metrics.
type BatchSummary struct {
	Dispatches  int64 `json:"dispatches"`
	BatchedJobs int64 `json:"batched_jobs"`
	MaxBatch    int64 `json:"max_batch"`
}

func (m *poolMetrics) snapshot(c Counts, memoSnap *memo.StatsSnapshot, pipeSnap *pipeline.MetricsSnapshot) MetricsSnapshot {
	uptime := int64(c.UptimeMS * 1000)
	per := make([]WorkerSummary, len(m.workers))
	for w := range m.workers {
		busy := m.workers[w].busyMicros.Load()
		since := m.workers[w].busySince.Load()
		if since > 0 {
			busy += uptime - since
		}
		util := 0.0
		if uptime > 0 {
			util = float64(busy) / float64(uptime)
		}
		per[w] = WorkerSummary{
			Worker:      w,
			Jobs:        m.workers[w].jobs.Load(),
			BusyMS:      float64(busy) / 1000,
			Busy:        since > 0,
			Utilization: util,
		}
	}
	return MetricsSnapshot{
		HostMetrics:   c.HostMetrics,
		Workers:       len(m.workers),
		QueueDepth:    c.QueueDepth,
		QueueCapacity: c.QueueCap,
		Admitted:      c.Admitted,
		MemoJobHits:   c.CacheHits,
		Inflight:      m.inflight.Load(),
		PerWorker:     per,
		Batch: BatchSummary{
			Dispatches:  m.batchDispatches.Load(),
			BatchedJobs: m.batchedJobs.Load(),
			MaxBatch:    m.maxBatch.Load(),
		},
		Memo:     memoSnap,
		Pipeline: pipeSnap,
		Motif:    m.motif.snapshot(),
	}
}
