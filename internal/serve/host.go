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
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxBodyBytes bounds a POST /v1/jobs body on either daemon.
const maxBodyBytes = 8 << 20

// Executor is the part of a daemon that does the work a Host admits: the
// skeleton pool behind motifd, the placement loop behind motifctl. The
// paper composes Tree-Reduce-1 as Server ∘ Rand ∘ Tree1; a Host is the
// Server, an Executor what it is composed with.
type Executor[J any] interface {
	// Key is the request's content digest and whether identical live
	// submissions collapse onto one job. It may rewrite req (motifctl
	// derives a placement label from the digest).
	Key(req *JobRequest) (memo.Key, bool)
	// Cached answers a submission from an identical finished job's result,
	// under the host's ledger lock, so it must not block; Fill stores a
	// finished job's result under its key. Fill runs before the job's
	// content key is released, so a repeat either collapses onto the live
	// job or finds its result.
	Cached(key memo.Key) (Results, bool)
	Fill(key memo.Key, res Results)
	// Job builds the daemon's job around an admitted task, under the host's
	// ledger lock, so it must not block. replayed is the journaled state of
	// a job rebuilt from the WAL, nil for a new one.
	Job(t *Task[J], replayed *store.JobState) J
	// Run executes one job popped by dispatch loop loop; it (or the host,
	// had it refused the job meanwhile) binds the job's outcome.
	Run(loop int, j J)
	// View is the job's JSON form on GET /v1/jobs/{id}; without full, the
	// result block is left out (the list view).
	View(j J, full bool) any
	// Chrome answers GET /debug/trace?format=chrome.
	Chrome(w http.ResponseWriter, events []trace.Event)
}

// Task is the host's half of a job: its identity, request, deadline and
// lifecycle. The daemon's job type holds it (motifd's Job embeds it).
type Task[J any] struct {
	id  string
	req JobRequest

	// ctx carries the job's deadline; cancel runs once it is bound.
	ctx    context.Context
	cancel context.CancelFunc

	// life holds the job's state, timing, decision and outcome. Only the
	// host binds it.
	life *Lifecycle

	// key is the request's content digest (valid when hasKey): the
	// singleflight identity at submission and the fill key on completion.
	key    memo.Key
	hasKey bool

	// stream carries a pipeline job's records to GET /v1/jobs/{id}/stream
	// readers as they are produced; nil when no live record stream exists.
	stream *recordStream

	// journaled is closed once the job's accepted record is durable or
	// refused.
	journaled chan struct{}

	job J
}

// ID is the job's id.
func (t *Task[J]) ID() string { return t.id }

// Request is the admitted request.
func (t *Task[J]) Request() *JobRequest { return &t.req }

// Context carries the job's deadline.
func (t *Task[J]) Context() context.Context { return t.ctx }

// Life is the job's lifecycle.
func (t *Task[J]) Life() *Lifecycle { return t.life }

// Journaled is closed once the job's accepted record is durable, or the
// job was refused because it is not: a job that leaves this process must
// not go before it.
func (t *Task[J]) Journaled() <-chan struct{} { return t.journaled }

// journaledAlready serves tasks replayed from the WAL.
var journaledAlready = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Host is the serving front end shared by motifd and motifctl: the
// admission ledger, the qos scheduler and the dispatch loops that pop it,
// journaling, WAL recovery, the terminal binding, drain, the job routes and
// the admission counters. What runs a job is its Executor.
type Host[J any] struct {
	cfg  Config
	exec Executor[J]
	// name is the daemon in the drain error body ("server", "coordinator");
	// liveCap, when positive, bounds admitted jobs not yet terminal on top
	// of the scheduler's queue bound.
	name    string
	liveCap int64

	sched *qos.Scheduler
	ring  *trace.Ring
	start time.Time
	met   counters
	live  atomic.Int64

	// ctx ends when Shutdown returns: executors that wait on the network
	// abandon their jobs then.
	ctx      context.Context
	stop     context.CancelFunc
	loops    sync.WaitGroup
	draining atomic.Bool
	resume   []*Task[J]

	// mu guards the ledger: job history, client-id dedup, and the
	// singleflight collapse of identical submissions onto a live job.
	mu     sync.Mutex
	ledger Ledger[*Task[J]]
}

// NewHost builds a host from cfg's admission, deadline, history and store
// settings, cfg.Workers being its dispatch loops, and replays cfg.Store:
// terminal jobs become pollable history, incomplete ones are queued again
// under their original ids. Start begins dispatching. Job ids are prefix
// plus a sequence number.
func NewHost[J any](cfg Config, prefix, name string, liveCap int, exec Executor[J]) *Host[J] {
	cfg.fill()
	h := &Host[J]{
		cfg:     cfg,
		exec:    exec,
		name:    name,
		liveCap: int64(liveCap),
		ring:    trace.NewRing(trace.DefaultRingCapacity),
		start:   time.Now(),
		met:     counters{latency: metrics.NewHistogram(latencyBoundsMicros...)},
		ledger:  NewLedger(prefix, cfg.MaxJobs, func(t *Task[J]) bool { return t.life.Live() }),
	}
	h.ctx, h.stop = context.WithCancel(context.Background())
	h.sched = qos.New(qos.Options{
		Capacity:    cfg.QueueCap,
		TenantDepth: cfg.TenantDepth,
		Weights:     cfg.TenantWeights,
		Fair:        cfg.FairQoS,
		Workers:     cfg.Workers,
		Tracer:      h.ring,
		NowMicros:   h.Micros,
	})
	if cfg.Store != nil {
		cfg.Store.SetTracer(h.ring)
		h.recover()
	}
	return h
}

// recover rebuilds the job table from the store's replayed state. Called
// before the dispatch loops start, so no locking is needed.
func (h *Host[J]) recover() {
	for _, js := range h.cfg.Store.Jobs() {
		req, life := Replay(h.cfg.Store, js)
		t := &Task[J]{id: js.ID, req: req, life: life, journaled: journaledAlready}
		if life.Live() {
			t.ctx, t.cancel = context.WithTimeout(context.Background(), h.timeout(&req))
			h.live.Add(1)
			// Recovered jobs ride above the admission bounds, so a restart
			// can never shed its own backlog.
			h.resume = append(h.resume, t)
		}
		t.job = h.exec.Job(t, &js)
		h.ledger.Restore(t.id, t, js.Client)
	}
}

// Start queues the recovered jobs and starts the dispatch loops.
func (h *Host[J]) Start() {
	for _, t := range h.resume {
		_ = h.sched.PushForce(t, t.req.Tenant, t.req.qosClass())
	}
	h.resume = nil
	h.loops.Add(h.cfg.Workers)
	for w := 0; w < h.cfg.Workers; w++ {
		go func() {
			defer h.loops.Done()
			for {
				t, ok := h.pop(true)
				if !ok {
					return
				}
				h.exec.Run(w, t.job)
			}
		}()
	}
}

// pop returns the next queued job in scheduling order. Blocking, false
// means the host is shut down and drained; not blocking (a batcher's
// drain), that nothing is queued right now.
func (h *Host[J]) pop(block bool) (*Task[J], bool) {
	v, ok := h.sched.Pop(block)
	if !ok {
		return nil, false
	}
	return v.(*Task[J]), true
}

// Shutdown drains gracefully: admission stops (new submissions get 503)
// and the dispatch loops run what is queued to completion. It returns
// ctx.Err() if the drain outlives ctx; the loops keep draining in the
// background then, and an executor waiting on the network abandons its
// job. Either way the host's context is cancelled on return.
func (h *Host[J]) Shutdown(ctx context.Context) error {
	h.draining.Store(true)
	h.sched.Close()
	done := make(chan struct{})
	go func() {
		h.loops.Wait()
		close(done)
	}()
	defer h.stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait waits for the dispatch loops to exit after Shutdown.
func (h *Host[J]) Wait() { h.loops.Wait() }

// Stopped is closed once Shutdown returns.
func (h *Host[J]) Stopped() <-chan struct{} { return h.ctx.Done() }

// timeout resolves a request's budget: its deadline_ms capped at
// MaxTimeout, or DefaultTimeout when it carries none.
func (h *Host[J]) timeout(req *JobRequest) time.Duration {
	if req.DeadlineMillis <= 0 {
		return h.cfg.DefaultTimeout
	}
	return min(time.Duration(req.DeadlineMillis)*time.Millisecond, h.cfg.MaxTimeout)
}

// Submit validates and admits a request, returning the daemon's job. It is
// the transport-independent core of POST /v1/jobs.
//
// A duplicate JobRequest.ID returns the original job even while it is
// still queued or running: the job is published in the history inside the
// critical section that claims the idempotency key, so no duplicate can
// race past the dedup check into a second execution. A submission whose
// content key matches a live job attaches to it (singleflight collapse),
// and one the executor's cache answers is done without queueing.
//
// The job is queued, then its accepted record is journaled, so the WAL's
// fsync is not on its path to a local worker; an executor that ships it
// elsewhere waits for Journaled. The caller is told only once the job is
// durable. A job the host refuses once it has an id is bound terminal,
// stays pollable, and is journaled so, shutdown or not, whether it was
// shed, found the scheduler closed, was preempted or was not journaled: no
// restart runs it. A refusal by the scheduler journals only the failed
// record, since the job was never accepted.
func (h *Host[J]) Submit(req JobRequest) (J, error) {
	var zero J
	if h.draining.Load() {
		return zero, ErrDraining
	}
	if err := req.Validate(); err != nil {
		h.met.rejected.Add(1)
		return zero, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	key, hasKey := h.exec.Key(&req)
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout(&req))
	t := &Task[J]{
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		life:      NewLifecycle(time.Now()),
		key:       key,
		hasKey:    hasKey,
		journaled: make(chan struct{}),
	}

	h.mu.Lock()
	if prev, ok := h.ledger.Dedup(req.ID); ok {
		h.mu.Unlock()
		cancel()
		h.met.deduped.Add(1)
		return prev.job, nil
	}
	if hasKey {
		if prev, ok := h.ledger.Collapse(key, req.ID); ok {
			h.mu.Unlock()
			cancel()
			h.met.collapsed.Add(1)
			h.Emit(trace.Event{Cycle: h.Micros(), Kind: trace.KindMemoCollapse,
				Proc: -1, From: -1, Label: key.Short()})
			return prev.job, nil
		}
		if res, ok := h.exec.Cached(key); ok {
			// Answered from the cache: nothing to fill or release later.
			t.hasKey = false
			h.admitLocked(t)
			h.mu.Unlock()
			if err := h.accept(t); err != nil {
				return zero, err
			}
			h.met.cacheHits.Add(1)
			h.bind(t, Outcome{State: StateDone, Results: res}, false, true)
			return t.job, nil
		}
	}
	if h.liveCap > 0 && h.live.Load() >= h.liveCap {
		h.mu.Unlock()
		cancel()
		h.met.shed.Add(1)
		return zero, &shedError{&qos.ShedError{Tenant: tenantName(req.Tenant), Scope: "global",
			RetryAfter: h.sched.RetryAfter(req.Tenant)}}
	}
	h.admitLocked(t)
	h.mu.Unlock()

	victim, err := h.sched.Push(t, req.Tenant, req.qosClass())
	if err != nil {
		var shed *qos.ShedError
		switch {
		case errors.As(err, &shed):
			h.met.shed.Add(1)
			err = &shedError{shed}
		case errors.Is(err, qos.ErrClosed):
			err = ErrDraining
		}
		h.refuse(t, Outcome{State: StateError, Err: err.Error()})
		return zero, err
	}
	if victim != nil {
		// The scheduler evicted a queued lower-class job to admit this
		// one; fail it back to its client as retriable.
		h.refuse(victim.(*Task[J]), Outcome{State: StatePreempted, Err: qos.ErrPreempted.Error()})
		h.met.preempted.Add(1)
	}
	if err := h.accept(t); err != nil {
		return zero, err
	}
	h.Emit(trace.Event{Cycle: h.Micros(), Kind: trace.KindEnqueue,
		Proc: -1, From: -1, Arg: int64(h.sched.Depth()), Label: string(req.Type) + ":" + t.id})
	return t.job, nil
}

// admitLocked publishes t in the ledger under a fresh id and builds its
// daemon job.
func (h *Host[J]) admitLocked(t *Task[J]) {
	t.id = h.ledger.Admit(t, t.req.ID, t.key, t.hasKey)
	t.job = h.exec.Job(t, nil)
	h.live.Add(1)
}

// accept journals t's accepted record and counts the admission. A record that
// cannot be journaled refuses the job, and Submit answers ErrNotJournaled.
func (h *Host[J]) accept(t *Task[J]) error {
	defer close(t.journaled)
	var err error
	if h.cfg.Store != nil {
		var body []byte
		if body, err = json.Marshal(t.req); err == nil {
			err = h.cfg.Store.Accepted(t.id, t.req.ID, body)
		}
	}
	if err != nil {
		h.refuse(t, Outcome{State: StateError, Err: "not journaled: " + err.Error()})
		return fmt.Errorf("%w: %v", ErrNotJournaled, err)
	}
	h.met.admitted.Add(1)
	return nil
}

// refuse binds a job that must not run and releases its idempotency and
// singleflight claims, so a resubmission runs fresh instead of finding the
// corpse. A refusal is journaled even while the host shuts down, so the
// job is never re-run after a restart.
func (h *Host[J]) refuse(t *Task[J], o Outcome) {
	h.mu.Lock()
	h.ledger.Release(t.id)
	h.mu.Unlock()
	h.bind(t, o, true, true)
}

// Bind binds a job's outcome through the host's terminal side effects. A
// job the host refused meanwhile is already bound; Bind then changes
// nothing. A failure bound after Shutdown returned is an executor giving up
// on a job because the host is going down: it is not journaled, so the job
// stays incomplete in the WAL and the next start (or a standby) runs it
// again.
func (h *Host[J]) Bind(t *Task[J], o Outcome) {
	h.bind(t, o, false, o.State == StateDone || h.ctx.Err() == nil)
}

// bind binds t's outcome. Its side effects run before the outcome is
// visible: count it (unless refused), fill the executor's cache with a
// cacheable success, release the ledger's content key, then append the
// terminal record (when journal) and apply it to the store. After
// publication come the record's fsync wait and the NDJSON stream's EOF, so
// a client that sees EOF can poll the final status at once.
func (h *Host[J]) bind(t *Task[J], o Outcome, refused, journal bool) {
	_ = t.life.Bind(o, func(o Outcome) func() {
		if !refused {
			switch o.State {
			case StateDone:
				h.met.done.Add(1)
			case StateError:
				h.met.failed.Add(1)
			}
			h.met.observeLatency(time.Since(t.life.Submitted()))
		}
		h.live.Add(-1)
		if t.hasKey {
			if o.State == StateDone {
				h.exec.Fill(t.key, o.Results)
			}
			h.mu.Lock()
			h.ledger.ReleaseContent(t.id)
			h.mu.Unlock()
		}
		durable := func() {}
		if st := h.cfg.Store; st != nil && journal {
			if o.State != StateDone {
				durable = st.Finish(t.id, nil, o.Err)
			} else if data, err := json.Marshal(JobStatus{ID: t.id, Type: t.req.Type,
				State: o.State, Results: o.Results}); err == nil {
				// The done record is the job's final status: what replay
				// restores and answers polls with.
				durable = st.Finish(t.id, data, "")
			}
		}
		return func() {
			if t.cancel != nil {
				t.cancel()
			}
			durable()
			if t.stream != nil {
				t.stream.close()
			}
		}
	})
}

// Job returns the job with the given id, if still in the history window.
func (h *Host[J]) Job(id string) (J, bool) {
	t, ok := h.task(id)
	if !ok {
		var zero J
		return zero, false
	}
	return t.job, true
}

func (h *Host[J]) task(id string) (*Task[J], bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ledger.Get(id)
}

// ObserveDone feeds one job's service time to the scheduler's drain
// estimate behind shed Retry-After advice.
func (h *Host[J]) ObserveDone(tenant string, d time.Duration) { h.sched.ObserveDone(tenant, d) }

// Micros is the host's clock, in microseconds since it started: the Cycle
// domain of every trace event it and its executor emit.
func (h *Host[J]) Micros() int64 { return time.Since(h.start).Microseconds() }

// Emit writes one event to the trace ring.
func (h *Host[J]) Emit(e trace.Event) { h.ring.Event(e) }

// Counts snapshots the host's accounting.
func (h *Host[J]) Counts() Counts {
	qosSnap := h.sched.Snapshot()
	return Counts{
		HostMetrics: HostMetrics{
			UptimeMS:    float64(h.Micros()) / 1000,
			Shed:        h.met.shed.Load(),
			Preempted:   h.met.preempted.Load(),
			Rejected:    h.met.rejected.Load(),
			Deduped:     h.met.deduped.Load(),
			Collapsed:   h.met.collapsed.Load(),
			Done:        h.met.done.Load(),
			Failed:      h.met.failed.Load(),
			Latency:     h.met.latencySummary(),
			TraceEvents: h.ring.Total(),
			Store:       h.cfg.Store.Metrics(),
			QoS:         &qosSnap,
		},
		Admitted:   h.met.admitted.Load(),
		CacheHits:  h.met.cacheHits.Load(),
		Live:       int(h.live.Load()),
		QueueDepth: h.sched.Depth(),
		QueueCap:   h.sched.Capacity(),
	}
}

// Counts is the host's accounting: its /metrics block, plus what each
// daemon names its own way. Admitted counts journaled admissions (queued
// or answered from the cache), CacheHits the latter; Live counts admitted
// jobs not yet terminal.
type Counts struct {
	HostMetrics
	Admitted, CacheHits        int64
	Live, QueueDepth, QueueCap int
}

// Handler returns the job routes both daemons serve; each adds its own
// (GET /metrics among them) to the returned mux:
//
//	POST /v1/jobs               submit a job; 202 with the job, 429 when shed
//	GET  /v1/jobs/{id}          poll a job
//	GET  /v1/jobs/{id}/stream   a pipeline job's records as NDJSON
//	GET  /v1/jobs               list recent jobs (newest first)
//	GET  /debug/trace           the structured event stream (?format=chrome
//	                            for a Chrome trace_event file)
//	GET  /healthz               liveness + drain state
func (h *Host[J]) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", h.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", h.handleStream)
	mux.HandleFunc("GET /v1/jobs", h.handleList)
	mux.HandleFunc("GET /debug/trace", h.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if h.draining.Load() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (h *Host[J]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	drainBody := map[string]string{"error": h.name + " draining"}
	if h.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, drainBody)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		h.met.rejected.Add(1)
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
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
	j, err := h.Submit(req)
	switch {
	case err == nil:
		WriteJSON(w, http.StatusAccepted, h.exec.View(j, true))
	case errors.Is(err, errBadRequest):
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrQueueFull):
		// Load shedding: tell the client when its tenant's queue is
		// expected to have drained instead of buffering without bound.
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfter(err)))
		WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		WriteJSON(w, http.StatusServiceUnavailable, drainBody)
	case errors.Is(err, ErrNotJournaled):
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

func (h *Host[J]) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := h.Job(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job id"})
		return
	}
	WriteJSON(w, http.StatusOK, h.exec.View(j, true))
}

func (h *Host[J]) handleList(w http.ResponseWriter, r *http.Request) {
	const maxList = 100
	h.mu.Lock()
	recent := h.ledger.Newest(maxList)
	h.mu.Unlock()
	out := make([]any, len(recent))
	for i, t := range recent {
		out[i] = h.exec.View(t.job, false)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (h *Host[J]) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := h.ring.Events()
	if r.URL.Query().Get("format") == "chrome" {
		h.exec.Chrome(w, events)
		return
	}
	out := make([]TraceEventJSON, len(events))
	for i, e := range events {
		out[i] = TraceEventJSON{
			TMicros: e.Cycle, Kind: e.Kind.String(), Proc: e.Proc,
			From: e.From, Arg: e.Arg, Label: e.Label,
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"total":   h.ring.Total(),
		"dropped": h.ring.Dropped(),
		"events":  out,
	})
}

// TraceEventJSON is the wire form of one event on /debug/trace, for
// motifd and motifctl alike.
type TraceEventJSON struct {
	TMicros int64  `json:"t_us"`
	Kind    string `json:"kind"`
	Proc    int    `json:"proc"`
	From    int    `json:"from,omitempty"`
	Arg     int64  `json:"arg,omitempty"`
	Label   string `json:"label,omitempty"`
}

// errBadRequest marks validation failures for the HTTP layer.
var errBadRequest = errors.New("bad request")

// ErrNotJournaled refuses a job whose accepted record the WAL could not
// take; both daemons answer it with 503.
var ErrNotJournaled = errors.New("job not journaled")

// WriteJSON writes v as the JSON body of a response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteChrome answers GET /debug/trace?format=chrome with events as a
// Chrome trace_event file named filename.
func WriteChrome(w http.ResponseWriter, filename string, events []trace.Event) {
	chrome := trace.NewChrome()
	for _, e := range events {
		chrome.Event(e)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+filename+`"`)
	// A write error is too late for a status change; the connection is gone.
	_, _ = chrome.WriteTo(w)
}

func tenantName(t string) string {
	if t == "" {
		return qos.DefaultTenant
	}
	return t
}
