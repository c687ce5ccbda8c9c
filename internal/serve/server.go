package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/memoshare"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/qos"
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
	// BatchCostMax is the AlignJob.Cost threshold for batching (default
	// ~12 sequences of length 100).
	BatchCostMax int64
	// DefaultTimeout applies when a request carries no deadline_ms
	// (default 30s); MaxTimeout caps requested deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobs bounds the finished-job history kept for polling (default
	// 1024; oldest evicted first).
	MaxJobs int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Seed drives the skeleton mappers.
	Seed int64
	// TraceCap sizes the trace ring (default trace.DefaultRingCapacity).
	TraceCap int
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
	if c.BatchCostMax <= 0 {
		c.BatchCostMax = batchCostDefault
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// Server is the serving layer: an admission queue, a worker pool, a job
// store for polling, and the observability endpoints. Create with New,
// serve via Handler, stop with Shutdown.
type Server struct {
	cfg  Config
	q    *queue
	met  *poolMetrics
	ring *trace.Ring
	memo *memo.Cache       // nil when Config.MemoBytes == 0
	pipe *pipeline.Metrics // per-stage pipeline metrics, aggregated across jobs

	// provider answers peer workers' GET /v1/memo/{digest} reads from the
	// local cache; fetcher (set by the cluster wiring via SetPeerFetcher)
	// resolves local misses from peers before computing.
	provider *memoshare.Provider
	fetcher  atomic.Pointer[memoshare.Fetcher]

	workerWG sync.WaitGroup
	draining atomic.Bool

	// mu guards the ledger: job history, client-id dedup, and the
	// singleflight collapse of identical submissions onto a live job
	// (finished results are answered from the memo cache instead).
	mu     sync.Mutex
	ledger Ledger[*Job]
}

// New builds the server and starts its worker pool. With a configured
// store it first replays the log: terminal jobs become pollable history
// (and answer duplicate submissions), incomplete jobs are re-enqueued
// under their original IDs.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:    cfg,
		met:    newPoolMetrics(cfg.Workers),
		ring:   trace.NewRing(cfg.TraceCap),
		memo:   memo.New(cfg.MemoBytes),
		pipe:   pipeline.NewMetrics(),
		ledger: NewLedger("j", cfg.MaxJobs, (*Job).live),
	}
	s.memo.SetTracer(s.ring)
	s.provider = memoshare.NewProvider(s.memo)
	var resume []*Job
	if cfg.Store != nil {
		cfg.Store.SetTracer(s.ring)
		resume = s.recoverFromStore()
	}
	s.q = newQueue(qos.Options{
		Capacity:    cfg.QueueCap,
		TenantDepth: cfg.TenantDepth,
		Weights:     cfg.TenantWeights,
		Fair:        cfg.FairQoS,
		Workers:     cfg.Workers,
		Tracer:      s.ring,
		NowMicros:   s.met.sinceMicros,
	})
	// Recovered jobs ride above the admission bounds, so a restart can
	// never shed its own backlog.
	for _, j := range resume {
		s.q.pushResumed(j)
	}
	s.workerWG.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker(w)
	}
	return s
}

// Shutdown drains gracefully: admission stops (new submissions get 503),
// queued and in-flight jobs run to completion, workers exit. It returns
// ctx.Err() if the drain outlives ctx; the pool keeps draining in the
// background in that case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit validates, deadline-wraps, and enqueues a request, returning the
// job. It is the transport-independent core of POST /v1/jobs.
//
// With the memo layer enabled, a submission whose content digest matches a
// live job attaches to it (singleflight collapse), and one matching a
// cached finished result is answered as an immediately-done job without
// queueing. Independently of memoization, a duplicate JobRequest.ID always
// returns the original job even while it is still queued or running: the
// job is published in the history inside the same critical section that
// claims the idempotency key, so no duplicate can race past the dedup
// check into a second execution.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if err := req.validate(); err != nil {
		s.met.rejected.Add(1)
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	var key memo.Key
	haveKey := false
	if s.memo != nil {
		key, haveKey = ContentKey(&req)
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		TimeoutFor(&req, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	j := &Job{
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		submitted: time.Now(),
		state:     StateQueued,
		worker:    -1,
		key:       key,
		hasKey:    haveKey,
	}
	if req.Type == JobPipeline {
		// The stream must exist before the job is published: a client may
		// open GET /v1/jobs/{id}/stream the moment the 202 lands.
		j.stream = newRecordStream()
	}

	// Allocate the ID, claim the idempotency key, and publish the job in
	// one critical section, so concurrent duplicates agree on a single job.
	s.mu.Lock()
	if prev, ok := s.ledger.Dedup(req.ID); ok {
		s.mu.Unlock()
		cancel()
		s.met.deduped.Add(1)
		return prev, nil
	}
	if haveKey {
		// Singleflight collapse: an identical job is already in flight;
		// attach to its execution instead of queueing another.
		if prev, ok := s.ledger.Collapse(key, req.ID); ok {
			s.mu.Unlock()
			cancel()
			s.met.collapsed.Add(1)
			s.emit(trace.Event{Cycle: s.met.sinceMicros(), Kind: trace.KindMemoCollapse,
				Proc: -1, From: -1, Label: key.Short()})
			return prev, nil
		}
		// Job-level cache: a finished identical job left its result here;
		// answer without queueing.
		v, _ := s.memo.Get(key)
		blob, _ := v.(memo.Bytes)
		if res, ok := memoResults(blob); ok {
			j.res = res
			j.state = StateDone
			j.finished = time.Now()
			j.id = s.ledger.Admit(j, req.ID, memo.Key{}, false)
			s.mu.Unlock()
			cancel()
			s.met.admitted.Add(1)
			s.met.memoHits.Add(1)
			s.met.done.Add(1)
			s.met.observeLatency(time.Since(j.submitted))
			s.journalCached(j)
			return j, nil
		}
	}
	j.id = s.ledger.Admit(j, req.ID, key, haveKey)
	s.mu.Unlock()

	victim, err := s.q.tryPush(j)
	if err != nil {
		cancel()
		s.unpublish(j)
		if errors.Is(err, ErrQueueFull) {
			s.met.shed.Add(1)
		}
		return nil, err
	}
	if victim != nil {
		// The scheduler evicted a queued lower-class job to admit this one;
		// fail it back to its client as retriable.
		s.preemptJob(victim)
	}
	s.met.admitted.Add(1)
	// Journal after the job is admitted and before the caller is told, so
	// an accepted response always refers to a durable job.
	if s.cfg.Store != nil {
		if body, err := json.Marshal(req); err == nil {
			_ = s.cfg.Store.Accepted(j.id, req.ID, body)
		}
	}
	s.emit(trace.Event{Cycle: s.met.sinceMicros(), Kind: trace.KindEnqueue,
		Proc: -1, From: -1, Arg: int64(s.q.depth()), Label: string(req.Type) + ":" + j.id})
	return j, nil
}

// preemptJob finishes a queued job the QoS layer evicted for a
// higher-class arrival: terminal state "preempted", retriable by contract
// (the work never started). Its idempotency and singleflight claims are
// released so a resubmission runs fresh instead of finding the corpse.
func (s *Server) preemptJob(j *Job) {
	j.mu.Lock()
	j.state = StatePreempted
	j.err = qos.ErrPreempted
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel()
	s.met.preempted.Add(1)
	s.mu.Lock()
	s.ledger.Release(j.id)
	s.mu.Unlock()
	if s.cfg.Store != nil {
		_ = s.cfg.Store.Failed(j.id, qos.ErrPreempted.Error())
	}
	if j.stream != nil {
		j.stream.close()
	}
}

// unpublish rolls a job back out of the history after a failed enqueue.
func (s *Server) unpublish(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger.Remove(j.id)
}

// journalCached journals a cache-answered job so it stays pollable across
// a restart, like any other accepted-and-finished job.
func (s *Server) journalCached(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	if body, err := json.Marshal(j.req); err == nil {
		_ = s.cfg.Store.Accepted(j.id, j.req.ID, body)
	}
	if data, err := json.Marshal(j.Status()); err == nil {
		_ = s.cfg.Store.Done(j.id, data)
	}
}

// Job returns the job with the given id, if still in the history window.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.Get(id)
}

// TenantQueueDepths reports each tenant's current admission-queue depth
// (non-empty queues only) — the per-tenant load block of cluster
// heartbeats.
func (s *Server) TenantQueueDepths() map[string]int {
	return s.q.sched.TenantDepths()
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
	qosSnap := s.q.sched.Snapshot()
	m := s.met.snapshot(s.q.depth(), s.q.capacity(), s.ring.Total(), s.cfg.Store.Metrics(), memoSnap, pipeSnap, &qosSnap)
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
func (s *Server) SetPeerFetcher(f *memoshare.Fetcher) {
	if f == nil {
		s.fetcher.Store(nil)
		return
	}
	s.fetcher.Store(f)
}

// PeerFetcher returns the installed memoshare fetcher, nil when peer fetch
// is disabled.
func (s *Server) PeerFetcher() *memoshare.Fetcher { return s.fetcher.Load() }

// MemoCache exposes the content-addressed cache (nil when memoization is
// disabled); bench drivers and tests inspect its counters directly.
func (s *Server) MemoCache() *memo.Cache { return s.memo }

// Tracer exposes the server's trace ring so sidecar components (the
// memoshare fetcher) can emit into the same timeline.
func (s *Server) Tracer() trace.Tracer { return s.ring }

// errBadRequest marks validation failures for the HTTP layer.
var errBadRequest = errors.New("bad request")

// Handler returns the HTTP API:
//
//	POST /v1/jobs               submit a job; 202 with the job id, 429 when shed
//	GET  /v1/jobs/{id}          poll a job
//	GET  /v1/jobs/{id}/stream   a pipeline job's records as NDJSON, streamed
//	                            as stages produce them
//	GET  /v1/jobs               list recent jobs (newest first)
//	GET  /metrics               serving metrics (JSON; ?format=text for humans)
//	GET  /debug/trace           the structured event stream (?format=chrome
//	                            for a Chrome trace_event file)
//	GET  /healthz               liveness + drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/memo/{digest}", s.handleMemoGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server draining"})
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.rejected.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
		return
	}
	// Headers carry QoS identity for clients that can't touch the body
	// (gateways stamping tenant on behalf of callers); the body wins.
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Motif-Tenant")
	}
	if req.Class == "" {
		req.Class = r.Header.Get("X-Motif-Class")
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.Status())
	case errors.Is(err, errBadRequest):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrQueueFull):
		// Load shedding: tell the client when its tenant's queue is
		// expected to have drained instead of buffering without bound.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server draining"})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	const maxList = 100
	s.mu.Lock()
	recent := s.ledger.Newest(maxList)
	s.mu.Unlock()
	out := make([]JobStatus, len(recent))
	for i, j := range recent {
		out[i] = j.Status()
		out[i].Results = Results{} // the list view is a summary
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
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
		writeJSON(w, http.StatusOK, snap)
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
	makespan := s.met.sinceMicros()
	fmt.Fprintf(w, "\nbusy/idle timeline (%.0fms):\n%s", float64(makespan)/1000,
		metrics.BusyTimeline(s.ring.Events(), snap.Workers, makespan, 72))
}

// traceEventJSON is the wire form of one event on /debug/trace.
type traceEventJSON struct {
	TMicros int64  `json:"t_us"`
	Kind    string `json:"kind"`
	Proc    int    `json:"proc"`
	From    int    `json:"from,omitempty"`
	Arg     int64  `json:"arg,omitempty"`
	Label   string `json:"label,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := s.ring.Events()
	if r.URL.Query().Get("format") == "chrome" {
		// Replay the ring into the Chrome exporter so the stream opens
		// directly in chrome://tracing / Perfetto.
		chrome := trace.NewChrome()
		for _, e := range events {
			chrome.Event(e)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="motifd-trace.json"`)
		if _, err := chrome.WriteTo(w); err != nil {
			// Too late for a status change; the connection is gone.
			return
		}
		return
	}
	out := make([]traceEventJSON, len(events))
	for i, e := range events {
		out[i] = traceEventJSON{
			TMicros: e.Cycle, Kind: e.Kind.String(), Proc: e.Proc,
			From: e.From, Arg: e.Arg, Label: e.Label,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   s.ring.Total(),
		"dropped": s.ring.Dropped(),
		"events":  out,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		state = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": state})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
