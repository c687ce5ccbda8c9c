package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/memoshare"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
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
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MemoCollapse, when true, collapses concurrent submissions of
	// identical content (equal serve.ContentKey) onto one in-flight job
	// instead of placing the work twice; the later submitters poll the
	// same job id. Off by default: benchmark streams legitimately submit
	// identical synthetic jobs and expect independent placements.
	MemoCollapse bool
	// MemoIndexCap bounds the peer memo tier's digest→workers index fed
	// by heartbeat fill summaries (default 8192 digests, LRU-evicted).
	MemoIndexCap int
	// TraceCap sizes the trace ring (default trace.DefaultRingCapacity).
	TraceCap int
	// Client ships and polls jobs (default: 30s-timeout http.Client).
	Client *http.Client
	// Store, when non-nil, journals the job lifecycle to a durable WAL:
	// accepted jobs survive a coordinator crash and are re-placed on
	// restart, and client-supplied request IDs dedup across it.
	Store *store.JobStore
}

func (c *Config) fill() error {
	if c.Policy == nil {
		p, err := NewPolicy("rand", c.Seed)
		if err != nil {
			return err
		}
		c.Policy = p
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
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// Coordinator shards jobs across registered workers: the cluster's server
// front end. Create with NewCoordinator, serve via Handler, stop with
// Shutdown.
type Coordinator struct {
	cfg  Config
	reg  *registry
	met  *coordMetrics
	ring *trace.Ring
	// memoIdx is the peer memo tier's digest→workers index: advisory
	// locations for worker-to-worker cache fetches.
	memoIdx *memoIndex
	// sched orders accepted jobs between admission and placement: the
	// same tenant-aware scheduler the serving layer uses, one level up.
	sched *qos.Scheduler

	ctx        context.Context // coordinator lifetime; cancelled by Shutdown
	stop       context.CancelFunc
	sweepWG    sync.WaitGroup
	jobsWG     sync.WaitGroup
	dispatchWG sync.WaitGroup
	draining   atomic.Bool
	pending    atomic.Int64

	// mu guards the ledger: job history, client-id dedup, and (with
	// MemoCollapse) the collapse of identical work onto one live placement.
	mu     sync.Mutex
	ledger serve.Ledger[*Job]
}

// Shed and drain sentinels for the transport-independent Submit.
var (
	// ErrBusy is returned when the pending bound is hit; the HTTP layer
	// maps it to 429 + Retry-After.
	ErrBusy = errors.New("cluster: pending jobs at capacity")
	// ErrDraining is returned once graceful shutdown has begun (503).
	ErrDraining = errors.New("cluster: coordinator draining")
	// errBadRequest marks validation failures (400).
	errBadRequest = errors.New("bad request")
)

// NewCoordinator builds the coordinator and starts its heartbeat-expiry
// sweeper.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		met:     newCoordMetrics(),
		ring:    trace.NewRing(cfg.TraceCap),
		ctx:     ctx,
		stop:    stop,
		ledger:  serve.NewLedger("c", cfg.MaxJobs, func(j *Job) bool { return j.life.Live() }),
		memoIdx: newMemoIndex(cfg.MemoIndexCap),
	}
	c.sched = qos.New(qos.Options{
		Capacity:    cfg.PendingCap,
		TenantDepth: cfg.TenantDepth,
		Weights:     cfg.TenantWeights,
		Fair:        cfg.FairQoS,
		Workers:     cfg.PlaceWorkers,
		Tracer:      c.ring,
		NowMicros:   c.met.sinceMicros,
	})
	c.reg = newRegistry(cfg.HeartbeatExpiry, c.met.start)
	if cfg.Store != nil {
		cfg.Store.SetTracer(c.ring)
		c.recoverFromStore()
	}
	c.dispatchWG.Add(cfg.PlaceWorkers)
	for i := 0; i < cfg.PlaceWorkers; i++ {
		go c.dispatcher()
	}
	c.sweepWG.Add(1)
	go c.sweeper()
	return c, nil
}

// dispatcher pops accepted jobs in scheduling order and owns each one end
// to end. Bounding the loops (PlaceWorkers) is what makes QoS real at the
// coordinator: beyond that many concurrent placements the admission queue
// builds, and tenants drain from it in weighted-fair order instead of
// first-come-first-served goroutine scheduling.
func (c *Coordinator) dispatcher() {
	defer c.dispatchWG.Done()
	for {
		v, ok := c.sched.Pop(true)
		if !ok {
			return
		}
		j := v.(*Job)
		start := time.Now()
		c.run(j)
		// Placement + execution time feeds the drain-rate estimate behind
		// shed Retry-After advice.
		c.sched.ObserveDone(j.req.Tenant, time.Since(start))
	}
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
		case <-c.ctx.Done():
			return
		}
	}
}

// Shutdown drains gracefully: admission stops (new submissions get 503)
// and in-flight jobs run to completion on their workers. It returns
// ctx.Err() if the drain outlives ctx; lingering job loops are cancelled
// either way before return.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	done := make(chan struct{})
	go func() {
		c.jobsWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Close the scheduler so dispatchers exit once drained, then cancel
	// the coordinator context so any jobs still queued past the deadline
	// fail fast instead of placing against a dying cluster.
	c.sched.Close()
	c.stop()
	c.dispatchWG.Wait()
	c.sweepWG.Wait()
	return err
}

// Job is one accepted request moving through the cluster.
type Job struct {
	id       string
	req      serve.JobRequest
	body     []byte // pre-marshaled request, shipped verbatim on each attempt
	deadline time.Time

	// life holds the job's state and outcome; it starts running at
	// each successful placement. Its decision is the job's harvested
	// mid-flight commitment (e.g. a FirstOnly search's shortcircuit
	// winner), copied off the worker's status while it was still running
	// and journaled in the coordinator's own WAL. Once set, losing the
	// worker no longer loses the answer: the retry completes from the
	// decision instead of re-placing the work. Only Coordinator.bind binds it.
	life *serve.Lifecycle

	mu          sync.Mutex
	workerID    string
	workerIndex int
	attempts    int
	excluded    map[string]bool
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

// Submit validates and accepts a request, returning the job; a goroutine
// then places, ships, and tracks it. It is the transport-independent core
// of POST /v1/jobs.
func (c *Coordinator) Submit(req serve.JobRequest) (*Job, error) {
	if c.draining.Load() {
		return nil, ErrDraining
	}
	if err := req.Validate(); err != nil {
		c.met.rejected.Add(1)
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	key, hasKey := serve.ContentKey(&req)
	if hasKey && req.Label == "" && c.cfg.Policy.Name() == "label" {
		// Label placement with no explicit label: derive one from the
		// content digest, so identical jobs land on the same worker and
		// warm its memo cache. Set before marshaling — the shipped body
		// carries the label too (workers ignore it).
		req.Label = key.Short()
	}
	hasKey = hasKey && c.cfg.MemoCollapse
	// Reserve a pending slot with a CAS loop so concurrent submissions
	// cannot overshoot the bound.
	for {
		cur := c.pending.Load()
		if cur >= int64(c.cfg.PendingCap) {
			c.met.shed.Add(1)
			tenant := req.Tenant
			if tenant == "" {
				tenant = qos.DefaultTenant
			}
			return nil, serve.Shed(&qos.ShedError{
				Tenant:     tenant,
				Scope:      "global",
				RetryAfter: c.sched.RetryAfter(req.Tenant),
			}, ErrBusy)
		}
		if c.pending.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		c.pending.Add(-1)
		return nil, err
	}
	now := time.Now()
	j := &Job{
		req:      req,
		body:     body,
		deadline: now.Add(serve.TimeoutFor(&req, c.cfg.DefaultTimeout, c.cfg.MaxTimeout)),
		life:     serve.NewLifecycle(now),
		excluded: make(map[string]bool),
	}
	c.mu.Lock()
	if prev, ok := c.ledger.Dedup(req.ID); ok {
		// Idempotent resubmission: same client request ID, same job.
		c.mu.Unlock()
		c.pending.Add(-1)
		c.met.deduped.Add(1)
		return prev, nil
	}
	if hasKey {
		if prev, ok := c.ledger.Collapse(key, req.ID); ok {
			// Identical work already in flight: collapse onto it rather
			// than shipping the same computation twice. The second client
			// polls the same job id.
			c.mu.Unlock()
			c.pending.Add(-1)
			c.met.collapsed.Add(1)
			c.emit(trace.Event{Cycle: c.met.sinceMicros(), Kind: trace.KindMemoCollapse,
				Proc: -1, From: -1, Label: key.Short()})
			return prev, nil
		}
	}
	j.id = c.ledger.Admit(j, req.ID, key, hasKey)
	c.mu.Unlock()

	// Durable before acknowledged: the accept record (carrying the verbatim
	// request body) is what restart recovery re-places. A job the WAL
	// cannot take is refused before it is ever pushed.
	if err := c.cfg.Store.Accepted(j.id, req.ID, body); err != nil {
		c.retire(j, serve.StateError, "not journaled: "+err.Error())
		return nil, fmt.Errorf("%w: %v", serve.ErrNotJournaled, err)
	}
	cls, _ := qos.ParseClass(req.Class) // validated above
	c.jobsWG.Add(1)
	victim, err := c.sched.Push(j, req.Tenant, cls)
	if err != nil {
		// The scheduler refused the job after it was journaled (the
		// submitting tenant's bound under fair QoS, or shutdown racing
		// admission): retire it terminally so the WAL stays consistent,
		// and hand the client a 429 naming the tenant's drain time.
		c.jobsWG.Done()
		c.retire(j, serve.StateError, err.Error())
		var shed *qos.ShedError
		if errors.As(err, &shed) {
			c.met.shed.Add(1)
			return nil, serve.Shed(shed, ErrBusy)
		}
		return nil, ErrDraining
	}
	if victim != nil {
		c.preempt(victim.(*Job))
	}
	c.met.accepted.Add(1)
	c.emit(trace.Event{Cycle: c.met.sinceMicros(), Kind: trace.KindEnqueue,
		Proc: -1, From: -1, Arg: c.pending.Load(), Label: string(req.Type) + ":" + j.id})
	return j, nil
}

// retire binds j terminal without it ever running, after releasing its
// identity bindings (so a client retry is not deduped onto the corpse),
// and frees its pending slot.
func (c *Coordinator) retire(j *Job, state serve.State, msg string) {
	c.mu.Lock()
	c.ledger.Release(j.id)
	c.mu.Unlock()
	c.bind(j, serve.Outcome{State: state, Err: msg})
	c.pending.Add(-1)
}

// preempt fails a queued lower-class job the scheduler evicted to admit a
// higher-class arrival: terminal StatePreempted, retriable by the client.
// Only queued jobs can reach here — a dispatched job left the scheduler
// under its lock and can never be chosen as a victim.
func (c *Coordinator) preempt(j *Job) {
	c.retire(j, serve.StatePreempted, qos.ErrPreempted.Error())
	c.met.preempted.Add(1)
	c.jobsWG.Done()
}

// Job returns the job with the given id, if still in the history window.
func (c *Coordinator) Job(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.Get(id)
}

// Metrics snapshots the coordinator metrics.
func (c *Coordinator) Metrics() MetricsSnapshot {
	qosSnap := c.sched.Snapshot()
	snap := c.met.snapshot(c.cfg.Policy.Name(), int(c.pending.Load()), c.cfg.PendingCap,
		c.reg.snapshot(time.Now()), c.ring.Total(), c.cfg.Store.Metrics(), &qosSnap)
	if idx := c.memoIdx.stats(); idx.Adds > 0 || idx.Lookups > 0 {
		snap.MemoIndex = &idx
	}
	return snap
}

// emit writes one event to the trace ring.
func (c *Coordinator) emit(e trace.Event) {
	if c.ring != nil {
		c.ring.Event(e)
	}
}

// Handler returns the cluster HTTP API:
//
//	POST /cluster/v1/register   worker joins (or rejoins) the cluster
//	POST /cluster/v1/heartbeat  worker load report; 404 asks it to re-register
//	POST /v1/jobs               submit a job; 202 with the job id, 429 when shed
//	GET  /v1/jobs/{id}          poll a job
//	GET  /v1/jobs               list recent jobs (newest first)
//	GET  /metrics               coordinator + per-worker metrics (?format=text)
//	GET  /debug/trace           coordinator event stream (?format=chrome
//	                            merges the live workers' streams into one
//	                            cluster-wide Perfetto timeline)
//	GET  /healthz               liveness + drain state
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/memo/{digest}", c.handleMemoLookup)
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs", c.handleList)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /debug/trace", c.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { serve.WriteHealth(w, c.draining.Load()) })
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

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.met.rejected.Add(1)
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
		return
	}
	// Header fallback for QoS identity, mirroring the worker API: the JSON
	// body wins when both are present.
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Motif-Tenant")
	}
	if req.Class == "" {
		req.Class = r.Header.Get("X-Motif-Class")
	}
	j, err := c.Submit(req)
	switch {
	case err == nil:
		serve.WriteJSON(w, http.StatusAccepted, j.View())
	case errors.Is(err, errBadRequest):
		serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrBusy):
		// Shed exactly like a saturated worker does, one level up: the
		// pending bound is the cluster's admission queue, and the header
		// advises the refused tenant's estimated drain time.
		w.Header().Set("Retry-After", strconv.Itoa(serve.RetryAfter(err)))
		serve.WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "coordinator draining"})
	case errors.Is(err, serve.ErrNotJournaled):
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		serve.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := c.Job(r.PathValue("id"))
	if !ok {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job id"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, j.View())
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	const maxList = 100
	c.mu.Lock()
	recent := c.ledger.Newest(maxList)
	c.mu.Unlock()
	out := make([]JobView, len(recent))
	for i, j := range recent {
		out[i] = j.View()
		out[i].Results = serve.Results{} // the list view is a summary
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
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
