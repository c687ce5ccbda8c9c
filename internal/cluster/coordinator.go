package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/memoshare"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
)

// Config sizes the coordinator. Zero values select the defaults noted on
// each field.
type Config struct {
	// Policy places jobs on workers (default the Rand policy).
	Policy Policy
	// Seed drives the default policy and retry jitter.
	Seed int64
	// PendingCap bounds accepted-but-unfinished jobs (default 256); beyond
	// it submissions are shed with 429 + Retry-After, mirroring the
	// worker-local queue bound one level up.
	PendingCap int
	// PlaceWorkers bounds concurrent placement loops (default 32). Jobs
	// beyond it wait in the admission scheduler, which is where QoS
	// ordering applies: under saturation the queue builds and tenants
	// drain in weighted-fair order.
	PlaceWorkers int
	// FairQoS enables tenant-aware admission (internal/qos) at the
	// coordinator: per-tenant bounded queues drained by weighted deficit
	// round robin, with class preemption of queued (never placed) work.
	FairQoS bool
	// TenantDepth bounds one tenant's queued jobs under FairQoS (default
	// max(8, PendingCap/8)); TenantWeights maps tenant → scheduling
	// weight (absent tenants weigh 1).
	TenantDepth   int
	TenantWeights map[string]int
	// MaxAttempts bounds how many workers one job may be shipped to
	// (default 4). Saturation re-placements do not consume attempts —
	// only placements that reached a worker and then lost it do.
	MaxAttempts int
	// HeartbeatInterval is the cadence workers are told to report at
	// (default DefaultHeartbeatInterval); HeartbeatExpiry the liveness
	// window (default DefaultExpiryFactor × interval).
	HeartbeatInterval time.Duration
	HeartbeatExpiry   time.Duration
	// PollInterval is how often the coordinator polls a worker for an
	// in-flight job's completion (default 15ms).
	PollInterval time.Duration
	// RetryBase/RetryMax shape the jittered exponential backoff between
	// re-placements (defaults 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DefaultTimeout bounds a job's whole cluster lifetime — placement,
	// retries, execution — when the request carries no deadline_ms
	// (default 60s); MaxTimeout caps requested deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobs bounds the finished-job history kept for polling (default
	// 1024; oldest evicted first).
	MaxJobs int
	// MemoCollapse, when true, collapses concurrent submissions of
	// identical content (equal serve.ContentKey) onto one in-flight job
	// instead of placing the work twice; the later submitters poll the
	// same job id. Off by default: benchmark streams legitimately submit
	// identical synthetic jobs and expect independent placements.
	MemoCollapse bool
	// Store, when non-nil, journals the job lifecycle to a durable WAL:
	// accepted jobs survive a coordinator crash and are re-placed on
	// restart, and client-supplied request IDs dedup across it.
	Store *store.JobStore
}

// fill sets the defaults; MaxTimeout and MaxJobs are filled with
// serve.Config's.
func (c *Config) fill() {
	if c.Policy == nil {
		c.Policy, _ = NewPolicy("rand", c.Seed) // a known name: no error
	}
	if c.PendingCap <= 0 {
		c.PendingCap = 256
	}
	if c.PlaceWorkers <= 0 {
		c.PlaceWorkers = 32
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.HeartbeatExpiry <= 0 {
		c.HeartbeatExpiry = DefaultExpiryFactor * c.HeartbeatInterval
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 15 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
}

// Coordinator is motifctl: a serve.Host composed with the remote executor
// (policy pick, ship, poll, retry with exclusion, decision harvest), plus
// what only a cluster needs — the worker registry and its heartbeats, the
// peer memo index and the merged trace. Create with NewCoordinator, serve
// via Handler, stop with Shutdown.
type Coordinator struct {
	cfg  Config
	host *serve.Host[*Job]
	reg  *registry
	// http carries every call to a worker: job ships and polls through a
	// serve.Client, and trace fetches.
	http *http.Client
	met  *coordMetrics
	// memoIdx is the peer memo tier's digest→workers index: advisory
	// locations for worker-to-worker cache fetches.
	memoIdx *memoIndex
	sweepWG sync.WaitGroup
}

// ErrBusy is the shed sentinel: the pending bound or a tenant's queue
// bound is hit, and the HTTP layer answers 429 + Retry-After.
var ErrBusy = serve.ErrQueueFull

// NewCoordinator builds the coordinator, replays its store (orphaned jobs
// are placed again under their original ids) and starts its placement
// loops and heartbeat-expiry sweeper.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg.fill()
	c := &Coordinator{
		cfg:     cfg,
		http:    &http.Client{Timeout: 30 * time.Second},
		met:     &coordMetrics{},
		memoIdx: newMemoIndex(),
	}
	// The pending bound is the coordinator's admission queue: it bounds
	// queued and placing jobs alike, a cluster concern the host applies as
	// its live-job bound.
	c.host = serve.NewHost[*Job](serve.Config{
		Workers:        cfg.PlaceWorkers,
		QueueCap:       cfg.PendingCap,
		FairQoS:        cfg.FairQoS,
		TenantDepth:    cfg.TenantDepth,
		TenantWeights:  cfg.TenantWeights,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		MaxJobs:        cfg.MaxJobs,
		Store:          cfg.Store,
	}, "c", "coordinator", cfg.PendingCap, (*remote)(c))
	c.reg = newRegistry(cfg.HeartbeatExpiry, c.host.Micros)
	c.host.Start()
	c.sweepWG.Add(1)
	go c.sweeper()
	return c, nil
}

// sweeper periodically expires workers whose heartbeats stopped. In-flight
// jobs on a dead worker notice independently (their polls fail) — the
// sweep exists so placement stops choosing the corpse and metrics report
// the death.
func (c *Coordinator) sweeper() {
	defer c.sweepWG.Done()
	tick := time.NewTicker(c.cfg.HeartbeatExpiry / 4)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			for _, id := range c.reg.sweep(time.Now()) {
				c.met.workerDeaths.Add(1)
				// Scrub the dead worker from the memo index so peer
				// lookups stop handing out its address.
				c.memoIdx.dropWorker(id)
			}
		case <-c.host.Stopped():
			return
		}
	}
}

// Shutdown drains gracefully: admission stops (new submissions get 503)
// and queued and in-flight jobs run to completion on their workers. It
// returns ctx.Err() if the drain outlives ctx; the placement loops still
// running then abandon their jobs, unjournaled, before Shutdown returns.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.host.Shutdown(ctx)
	c.host.Wait()
	c.sweepWG.Wait()
	return err
}

// Submit validates and admits a request, returning the job (Host.Submit).
func (c *Coordinator) Submit(req serve.JobRequest) (*Job, error) { return c.host.Submit(req) }

// Job returns the job with the given id, if still in the history window.
func (c *Coordinator) Job(id string) (*Job, bool) { return c.host.Job(id) }

// Job is one accepted request moving through the cluster.
type Job struct {
	t   *serve.Task[*Job]
	id  string
	req *serve.JobRequest

	// life holds the job's state and outcome; it starts running at each
	// successful placement. Its decision is the job's harvested mid-flight
	// commitment (e.g. a FirstOnly search's shortcircuit winner), copied
	// off the worker's status while it was still running and journaled in
	// the coordinator's own WAL. Once set, losing the worker no longer
	// loses the answer: the retry completes from the decision instead of
	// re-placing the work.
	life *serve.Lifecycle

	mu       sync.Mutex
	workerID string
	attempts int
	excluded map[string]bool
}

// JobView is the JSON view of a cluster job: the local serving layer's
// status shape (so existing pollers work unchanged) plus the cluster
// placement fields. Its result block is the worker's, verbatim.
type JobView struct {
	ID    string        `json:"id"`
	Type  serve.JobType `json:"type"`
	State serve.State   `json:"state"`
	Error string        `json:"error,omitempty"`
	// Tenant and Class echo the request's QoS identity.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// WorkerID is the worker currently (or finally) holding the job;
	// Attempts counts placements, >1 meaning the job was retried.
	WorkerID string `json:"worker_id,omitempty"`
	Attempts int    `json:"attempts"`
	// QueueMillis is accept→first ship; RunMillis is ship→finish.
	QueueMillis float64 `json:"queue_ms"`
	RunMillis   float64 `json:"run_ms"`

	serve.Results

	// Decision is the job's harvested mid-flight commitment, if any —
	// durable at the coordinator even if the worker that made it dies.
	Decision *serve.DecisionNote `json:"decision,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	l := j.life.Snapshot()
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:          j.id,
		Type:        j.req.Type,
		State:       l.State,
		Error:       l.Err,
		Tenant:      j.req.Tenant,
		Class:       j.req.Class,
		WorkerID:    j.workerID,
		Attempts:    j.attempts,
		QueueMillis: l.QueueMillis,
		RunMillis:   l.RunMillis,
		Results:     l.Results,
		Decision:    l.Decision,
	}
}

// Metrics snapshots the coordinator metrics.
func (c *Coordinator) Metrics() MetricsSnapshot {
	snap := c.met.snapshot(c.host.Counts(), c.cfg.Policy.Name(), c.cfg.PendingCap, c.reg.snapshot(time.Now()))
	if idx := c.memoIdx.stats(); idx.Adds > 0 || idx.Lookups > 0 {
		snap.MemoIndex = &idx
	}
	return snap
}

// Handler returns the cluster HTTP API: the host's job routes (POST
// /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/stream, GET /v1/jobs, GET
// /debug/trace, GET /healthz) plus
//
//	POST /cluster/v1/register   worker joins (or rejoins) the cluster
//	POST /cluster/v1/heartbeat  worker load report; 404 asks it to re-register
//	GET  /cluster/v1/memo/{d}   peer memo tier: which workers hold digest d
//	GET  /metrics               coordinator + per-worker metrics (?format=text)
//
// GET /debug/trace?format=chrome merges the live workers' streams into one
// cluster-wide Perfetto timeline.
func (c *Coordinator) Handler() http.Handler {
	mux := c.host.Handler()
	mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/memo/{digest}", c.handleMemoLookup)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info WorkerInfo
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&info); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
		return
	}
	if info.ID == "" || info.Addr == "" {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "register needs id and addr"})
		return
	}
	index := c.reg.register(info, time.Now())
	serve.WriteJSON(w, http.StatusOK, RegisterResponse{
		Index:           index,
		HeartbeatMillis: c.cfg.HeartbeatInterval.Milliseconds(),
		ExpiryMillis:    c.cfg.HeartbeatExpiry.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&hb); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
		return
	}
	if !c.reg.heartbeat(hb, time.Now()) {
		// Unknown worker — likely a coordinator restart; the agent
		// re-registers on 404.
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown worker; re-register"})
		return
	}
	// Fold the worker's recent-fills summary into the digest→workers
	// index. The window is bounded on the worker side; cap it here too so
	// a misbehaving client cannot flood the index in one beat.
	fills := hb.MemoFills
	if len(fills) > fillWindow {
		fills = fills[len(fills)-fillWindow:]
	}
	for _, digest := range fills {
		if k, err := memo.ParseKey(digest); err == nil {
			c.memoIdx.add(k, hb.ID)
		}
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMemoLookup answers a worker's peer-location query for one digest:
// the live workers that recently advertised filling it, excluding the
// requester. Purely advisory — 404 just means "compute it yourself".
func (c *Coordinator) handleMemoLookup(w http.ResponseWriter, r *http.Request) {
	k, err := memo.ParseKey(r.PathValue("digest"))
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad digest"})
		return
	}
	ids := c.memoIdx.lookup(k, r.URL.Query().Get("exclude"))
	if len(ids) == 0 {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "not indexed"})
		return
	}
	holders := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		holders[id] = struct{}{}
	}
	var locs []memoshare.Location
	for _, wv := range c.reg.live(time.Now()) {
		if _, ok := holders[wv.ID]; ok {
			locs = append(locs, memoshare.Location{ID: wv.ID, Addr: wv.Addr})
		}
	}
	if len(locs) == 0 {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "no live holder"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, memoshare.LookupResponse{Workers: locs})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.Metrics()
	if r.URL.Query().Get("format") != "text" {
		serve.WriteJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "coordinator up %.0fms  policy=%s  workers=%d live  pending %d/%d\n",
		snap.UptimeMS, snap.Policy, snap.LiveWorkers, snap.Pending, snap.PendingCap)
	fmt.Fprintf(w, "accepted=%d shed=%d preempted=%d done=%d failed=%d  deduped=%d collapsed=%d  retries=%d saturated=%d deaths=%d\n",
		snap.Accepted, snap.Shed, snap.Preempted, snap.Done, snap.Failed,
		snap.Deduped, snap.Collapsed,
		snap.Retries, snap.Saturated, snap.WorkerDeaths)
	if snap.Memo != nil {
		fmt.Fprintf(w, "memo: cluster hit-rate %.3f (%d hits / %d misses)\n",
			snap.Memo.HitRate, snap.Memo.Hits, snap.Memo.Misses)
	}
	if q := snap.QoS; q != nil {
		mode := "fifo"
		if q.Fair {
			mode = "fair"
		}
		fmt.Fprintf(w, "qos: mode=%s tenants=%d depth=%d/%d admitted=%d shed=%d preempted=%d service-ewma=%.2fms\n",
			mode, q.Tenants, q.Depth, q.Capacity, q.Admitted, q.Shed, q.Preempted, q.ServiceEWMAMS)
	}
	if len(snap.TenantDepths) > 0 {
		tenants := make([]string, 0, len(snap.TenantDepths))
		for tenant := range snap.TenantDepths {
			tenants = append(tenants, tenant)
		}
		sort.Strings(tenants)
		fmt.Fprint(w, "tenant queue depth (workers):")
		for _, tenant := range tenants {
			fmt.Fprintf(w, "  %s=%d", tenant, snap.TenantDepths[tenant])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "latency ms: p50=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f (n=%d)\n\n",
		snap.Latency.P50MS, snap.Latency.P95MS, snap.Latency.P99MS,
		snap.Latency.MeanMS, snap.Latency.MaxMS, snap.Latency.Count)
	tab := metrics.NewTable("worker", "addr", "state", "beat ms", "queue", "inflight", "shipped", "completed", "retried", "memo hits")
	for _, ws := range snap.Workers {
		state := "live"
		switch {
		case !ws.Live:
			state = "dead"
		case ws.Saturated:
			state = "saturated"
		}
		tab.AddRow(ws.ID, ws.Addr, state, ws.LastBeatAgeMS, ws.QueueDepth,
			ws.Inflight, ws.Shipped, ws.Completed, ws.Retried, ws.MemoHits)
	}
	fmt.Fprint(w, tab.String())
}
