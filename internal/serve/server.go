package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/memoshare"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config sizes the serving layer. Zero values select the defaults noted on
// each field.
type Config struct {
	// Workers is the pool size (default 4).
	Workers int
	// InnerWorkers is the parallelism of one job's reduction (default 4).
	InnerWorkers int
	// QueueCap bounds the admission queue (default 64); beyond it requests
	// are shed with 429.
	QueueCap int
	// BatchMax caps how many small alignment jobs one farm dispatch
	// coalesces (default 8).
	BatchMax int
	// DefaultTimeout applies when a request carries no deadline_ms
	// (default 30s); MaxTimeout caps requested deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobs bounds the finished-job history kept for polling (default
	// 1024; oldest evicted first).
	MaxJobs int
	// Seed drives the skeleton mappers.
	Seed int64
	// Store, when non-nil, journals the job lifecycle to a write-ahead
	// log: accepted jobs survive a crash (incomplete ones are re-run on
	// the next New with the same store), tree reductions checkpoint
	// completed subtrees and resume from them, and the JobRequest.ID
	// dedup table is rebuilt from the log.
	Store *store.JobStore
	// MemoBytes, when positive, enables the content-addressed memo layer
	// (internal/memo) with that total byte budget: finished results are
	// cached under the job's content digest and answer identical
	// resubmissions without queueing, and align/tree reductions memoize
	// subtree values so warm runs skip already-computed subtrees even
	// across different jobs. Zero disables memoization.
	MemoBytes int64
	// FairQoS enables tenant-aware admission (internal/qos): per-tenant
	// bounded queues drained by weighted deficit round robin, priority
	// classes with preemption of queued lower-class work, and per-tenant
	// drain-derived Retry-After on sheds. False keeps the original flat
	// FIFO (tenant identity is still accounted, just not scheduled on).
	FairQoS bool
	// TenantDepth bounds one tenant's queue under FairQoS (default
	// max(8, QueueCap/8)).
	TenantDepth int
	// TenantWeights maps tenant → scheduling weight under FairQoS; absent
	// tenants weigh 1.
	TenantWeights map[string]int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.InnerWorkers <= 0 {
		c.InnerWorkers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
}

// Server is motifd: a Host composed with the local executor, the skeleton
// pool. Create with New, serve via Handler, stop with Shutdown.
type Server struct {
	cfg  Config
	host *Host[*Job]
	met  *poolMetrics
	memo *memo.Cache       // nil when Config.MemoBytes == 0
	pipe *pipeline.Metrics // per-stage pipeline metrics, aggregated across jobs

	// provider answers peer workers' GET /v1/memo/{digest} reads from the
	// local cache; fetcher (set by the cluster wiring via SetPeerFetcher)
	// resolves local misses from peers before computing.
	provider *memoshare.Provider
	fetcher  atomic.Pointer[memoshare.Fetcher]
}

// New builds the server and starts its worker pool. With a configured
// store it first replays the log: terminal jobs become pollable history
// (and answer duplicate submissions), incomplete jobs are re-enqueued
// under their original IDs.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:  cfg,
		met:  newPoolMetrics(cfg.Workers),
		memo: memo.New(cfg.MemoBytes),
		pipe: pipeline.NewMetrics(),
	}
	s.host = NewHost(cfg, "j", "server", 0, (*local)(s))
	s.memo.SetTracer(s.host.ring)
	s.provider = memoshare.NewProvider(s.memo)
	s.host.Start()
	return s
}

// Shutdown drains gracefully: admission stops (new submissions get 503),
// queued and in-flight jobs run to completion, workers exit. It returns
// ctx.Err() if the drain outlives ctx; the pool keeps draining in the
// background in that case.
func (s *Server) Shutdown(ctx context.Context) error { return s.host.Shutdown(ctx) }

// Submit validates and enqueues a request, returning the job (Host.Submit).
func (s *Server) Submit(req JobRequest) (*Job, error) { return s.host.Submit(req) }

// Job returns the job with the given id, if still in the history window.
func (s *Server) Job(id string) (*Job, bool) { return s.host.Job(id) }

// TenantQueueDepths reports each tenant's current admission-queue depth
// (non-empty queues only) — the per-tenant load block of cluster
// heartbeats.
func (s *Server) TenantQueueDepths() map[string]int {
	return s.host.sched.TenantDepths()
}

// Metrics snapshots the serving metrics.
func (s *Server) Metrics() MetricsSnapshot {
	var memoSnap *memo.StatsSnapshot
	if s.memo != nil {
		snap := s.memo.Stats()
		memoSnap = &snap
	}
	var pipeSnap *pipeline.MetricsSnapshot
	if ps := s.pipe.Snapshot(); ps != nil && (ps.Jobs > 0 || len(ps.Stages) > 0) {
		pipeSnap = ps
	}
	m := s.met.snapshot(s.host.Counts(), memoSnap, pipeSnap)
	if s.memo != nil {
		var ms memoshare.Stats
		s.provider.AddTo(&ms)
		s.fetcher.Load().AddTo(&ms)
		m.Memoshare = &ms
	}
	return m
}

// SetPeerFetcher installs (or clears) the memoshare fetcher that resolves
// local memo misses from peer workers at execution time. The cluster
// wiring calls it once the coordinator address is known; safe to call
// concurrently with running jobs.
func (s *Server) SetPeerFetcher(f *memoshare.Fetcher) { s.fetcher.Store(f) }

// MemoCache exposes the content-addressed cache (nil when memoization is
// disabled); bench drivers and tests inspect its counters directly.
func (s *Server) MemoCache() *memo.Cache { return s.memo }

// Tracer exposes the server's trace ring so sidecar components (the
// memoshare fetcher) can emit into the same timeline.
func (s *Server) Tracer() trace.Tracer { return s.host.ring }

// Handler returns the HTTP API: the host's job routes (POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/stream, GET /v1/jobs, GET
// /debug/trace, GET /healthz) plus
//
//	GET  /v1/memo/{digest}      the peer memo tier's read of one cache entry
//	GET  /metrics               serving metrics (JSON; ?format=text for humans)
func (s *Server) Handler() http.Handler {
	mux := s.host.Handler()
	mux.HandleFunc("GET /v1/memo/{digest}", s.handleMemoGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleMemoGet is the peer memo tier's read-only surface: serve one local
// cache entry by digest, payload checksum in the X-Memo-Sum header. Peers
// read through it on their local misses; it never computes and never
// distorts this worker's own hit/miss accounting.
func (s *Server) handleMemoGet(w http.ResponseWriter, r *http.Request) {
	s.provider.Serve(w, r, r.PathValue("digest"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	if r.URL.Query().Get("format") != "text" {
		WriteJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "motifd up %.0fms  workers=%d  queue %d/%d  admitted=%d shed=%d preempted=%d done=%d failed=%d inflight=%d\n",
		snap.UptimeMS, snap.Workers, snap.QueueDepth, snap.QueueCapacity,
		snap.Admitted, snap.Shed, snap.Preempted, snap.Done, snap.Failed, snap.Inflight)
	fmt.Fprintf(w, "latency ms: p50=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f (n=%d)\n",
		snap.Latency.P50MS, snap.Latency.P95MS, snap.Latency.P99MS,
		snap.Latency.MeanMS, snap.Latency.MaxMS, snap.Latency.Count)
	fmt.Fprintf(w, "batching: %d dispatches, %d jobs batched, max batch %d\n",
		snap.Batch.Dispatches, snap.Batch.BatchedJobs, snap.Batch.MaxBatch)
	if snap.Memo != nil {
		fmt.Fprintf(w, "memo: hit-rate %.3f (%d hits / %d misses), %d/%d bytes in %d entries, %d evictions, %d collapsed, %d job hits\n",
			snap.Memo.HitRate, snap.Memo.Hits, snap.Memo.Misses,
			snap.Memo.Bytes, snap.Memo.MaxBytes, snap.Memo.Entries,
			snap.Memo.Evictions, snap.Collapsed, snap.MemoJobHits)
	}
	if ms := snap.Memoshare; ms != nil && (ms.Lookups > 0 || ms.Served > 0 || ms.ServeMisses > 0) {
		fmt.Fprintf(w, "memoshare: %d peer hits / %d lookups (%d misses, %d failures, %d rejects, %d collapsed), fetched %d bytes; served %d entries (%d bytes) to peers\n",
			ms.PeerHits, ms.Lookups, ms.PeerMisses, ms.FetchFailures,
			ms.VerifyRejects, ms.Collapses, ms.BytesFetched, ms.Served, ms.BytesServed)
	}
	if q := snap.QoS; q != nil {
		mode := "fifo"
		if q.Fair {
			mode = fmt.Sprintf("fair (tenant depth %d)", q.TenantDepth)
		}
		fmt.Fprintf(w, "qos %s: %d tenants, admitted=%d shed=%d preempted=%d service-ewma=%.2fms\n",
			mode, q.Tenants, q.Admitted, q.Shed, q.Preempted, q.ServiceEWMAMS)
		for _, ts := range q.PerTenant {
			fmt.Fprintf(w, "  tenant %-16s w=%d depth=%d admitted=%d shed=%d preempted=%d done=%d wait p50=%.2fms p99=%.2fms\n",
				ts.Tenant, ts.Weight, ts.Depth, ts.Admitted, ts.Shed, ts.Preempted, ts.Done, ts.P50WaitMS, ts.P99WaitMS)
		}
	}
	if mo := snap.Motif; mo != nil {
		fmt.Fprintf(w, "motif jobs: search done=%d terminated=%d resumed-decisions=%d; grid done=%d converged=%d resumed-sweeps=%d; sort done=%d resumed-paths=%d\n",
			mo.Search.Done, mo.Search.Terminated, mo.Search.ResumedDecisions,
			mo.Grid.Done, mo.Grid.Converged, mo.Grid.ResumedSweeps,
			mo.Sort.Done, mo.Sort.ResumedPaths)
	}
	if snap.Pipeline != nil {
		fmt.Fprintf(w, "pipeline: %d jobs, %d records streamed, %d stages resumed\n",
			snap.Pipeline.Jobs, snap.Pipeline.Records, snap.Pipeline.ResumedStages)
		for _, ss := range snap.Pipeline.Stages {
			fmt.Fprintf(w, "  stage %-8s in=%d out=%d dropped=%d queue=%d busy=%.1fms p95=%.2fms %.0f rec/s\n",
				ss.Name, ss.In, ss.Out, ss.Dropped, ss.QueueDepth, ss.BusyMS, ss.P95MS, ss.ThroughputRPS)
		}
	}
	fmt.Fprintln(w)
	tab := metrics.NewTable("worker", "jobs", "busy ms", "utilization", "state")
	for _, ws := range snap.PerWorker {
		state := "idle"
		if ws.Busy {
			state = "busy"
		}
		tab.AddRow(ws.Worker, ws.Jobs, ws.BusyMS, ws.Utilization, state)
	}
	fmt.Fprint(w, tab.String())
	makespan := s.host.Micros()
	fmt.Fprintf(w, "\nbusy/idle timeline (%.0fms):\n%s", float64(makespan)/1000,
		metrics.BusyTimeline(s.host.ring.Events(), snap.Workers, makespan, 72))
}
