package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// fastConfig returns coordinator knobs tuned for tests: manual
// registrations stay live without heartbeats (huge expiry), and every
// retry-path delay is milliseconds, not the production defaults.
func fastConfig() Config {
	return Config{
		Seed:              1,
		HeartbeatInterval: time.Hour,
		HeartbeatExpiry:   4 * time.Hour,
		PollInterval:      5 * time.Millisecond,
		RetryBase:         5 * time.Millisecond,
		RetryMax:          50 * time.Millisecond,
	}
}

// newRealWorker stands up a genuine serving-layer worker behind an HTTP
// listener — the same binary surface motifd -worker exposes.
func newRealWorker(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2, InnerWorkers: 2, QueueCap: 32})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func shutdownCoordinator(t *testing.T, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("coordinator shutdown: %v", err)
	}
}

// waitTerminal waits until the job's outcome is bound.
func waitTerminal(t *testing.T, j *Job, within time.Duration) JobView {
	t.Helper()
	select {
	case <-j.life.Done():
	case <-time.After(within):
		t.Fatalf("job %s still %s after %v", j.id, j.life.State(), within)
	}
	return j.View()
}

func treeReq(leaves int) serve.JobRequest {
	return serve.JobRequest{Type: serve.JobTree, Tree: &serve.TreeSpec{Leaves: leaves, Seed: 7}}
}

// preferPolicy deterministically prefers one worker whenever it is
// eligible — the scripted stand-in that lets failure tests steer the first
// placement onto a misbehaving worker.
type preferPolicy struct{ preferred string }

func (p preferPolicy) Name() string { return "prefer:" + p.preferred }
func (p preferPolicy) Pick(_, _ string, cand []WorkerView) WorkerView {
	for _, w := range cand {
		if w.ID == p.preferred {
			return w
		}
	}
	return cand[0]
}

// TestClusterEndToEnd drives the full HTTP surface: two real workers
// registered with a coordinator, sixteen jobs submitted through the
// coordinator's own API, all completing with results, placements spread
// over both workers, and ship/deliver pairs in the trace.
func TestClusterEndToEnd(t *testing.T) {
	_, wsA := newRealWorker(t)
	_, wsB := newRealWorker(t)

	c, err := NewCoordinator(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.reg.register(WorkerInfo{ID: "wA", Addr: wsA.URL, Workers: 2}, time.Now())
	c.reg.register(WorkerInfo{ID: "wB", Addr: wsB.URL, Workers: 2}, time.Now())

	front := httptest.NewServer(c.Handler())
	defer front.Close()

	const jobs = 16
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		body, _ := json.Marshal(treeReq(256))
		resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, v.ID)
	}

	deadline := time.Now().Add(15 * time.Second)
	for _, id := range ids {
		for {
			resp, err := http.Get(front.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if v.State == serve.StateDone {
				if v.Tree == nil || v.Tree.Units == 0 {
					t.Fatalf("job %s done without a tree result: %+v", id, v)
				}
				break
			}
			if v.State == serve.StateError {
				t.Fatalf("job %s failed: %s", id, v.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", id, v.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	snap := c.Metrics()
	if snap.Done != jobs || snap.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", snap.Done, snap.Failed, jobs)
	}
	if snap.LiveWorkers != 2 {
		t.Fatalf("live workers %d, want 2", snap.LiveWorkers)
	}
	for _, ws := range snap.Workers {
		if ws.Shipped == 0 {
			t.Fatalf("worker %s received no placements across %d jobs: %+v", ws.ID, jobs, snap.Workers)
		}
		if ws.Shipped != ws.Completed {
			t.Fatalf("worker %s shipped %d but completed %d", ws.ID, ws.Shipped, ws.Completed)
		}
	}
	if snap.TraceEvents < int64(2*jobs) {
		t.Fatalf("trace has %d events, want at least %d (ship+deliver per job)", snap.TraceEvents, 2*jobs)
	}
}

// fakeWorker is a scripted worker: it accepts every submission and then
// answers polls with a fixed state, letting failure tests hold jobs
// in-flight deterministically.
type fakeWorker struct {
	mu       sync.Mutex
	accepted int
	ts       *httptest.Server
}

func newFakeWorker(t *testing.T, submitStatus int, pollState serve.State) *fakeWorker {
	t.Helper()
	f := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.accepted++
		n := f.accepted
		f.mu.Unlock()
		if submitStatus == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		if submitStatus != http.StatusAccepted {
			w.WriteHeader(submitStatus)
			fmt.Fprintf(w, `{"error":"scripted %d"}`, submitStatus)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"f%06d","type":"tree","state":"queued","queue_ms":0,"run_ms":0,"worker":-1}`, n)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"type":"tree","state":%q,"queue_ms":0,"run_ms":0,"worker":0}`,
			r.PathValue("id"), pollState)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeWorker) acceptedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.accepted
}

// TestWorkerDeathZeroLostJobs is the ISSUE's headline guarantee: jobs
// in-flight on a worker that dies mid-run are re-placed and complete on a
// survivor — zero accepted jobs lost. The dying worker is scripted to
// accept jobs and hold them running forever; closing its listener is the
// kill. Placement prefers the doomed worker, so every job makes a
// placement there first.
func TestWorkerDeathZeroLostJobs(t *testing.T) {
	doomed := newFakeWorker(t, http.StatusAccepted, serve.StateRunning)
	_, survivor := newRealWorker(t)

	cfg := fastConfig()
	cfg.Policy = preferPolicy{preferred: "doomed"}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.reg.register(WorkerInfo{ID: "doomed", Addr: doomed.ts.URL, Workers: 1}, time.Now())
	c.reg.register(WorkerInfo{ID: "survivor", Addr: survivor.URL, Workers: 2}, time.Now())

	const n = 8
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := c.Submit(treeReq(128))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Let every job reach the doomed worker, then kill it.
	waitFor(t, 5*time.Second, func() bool { return doomed.acceptedCount() >= n })
	doomed.ts.Close()

	for _, j := range jobs {
		v := waitTerminal(t, j, 20*time.Second)
		if v.State != serve.StateDone {
			t.Fatalf("job %s lost to the worker death: state=%s err=%s", v.ID, v.State, v.Error)
		}
		if v.Attempts < 2 {
			t.Fatalf("job %s completed with %d attempts; it never visited the doomed worker", v.ID, v.Attempts)
		}
		if v.WorkerID != "survivor" {
			t.Fatalf("job %s finished on %q, want the survivor", v.ID, v.WorkerID)
		}
	}
	snap := c.Metrics()
	if snap.Done != n || snap.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", snap.Done, snap.Failed, n)
	}
	if snap.Retries < n {
		t.Fatalf("retries=%d, want at least %d (every job re-placed)", snap.Retries, n)
	}
}

// TestRetryWithExclusion: a worker that errors on submit consumes one
// attempt and is excluded from the job's next placement, which succeeds
// elsewhere.
func TestRetryWithExclusion(t *testing.T) {
	flaky := newFakeWorker(t, http.StatusInternalServerError, serve.StateQueued)
	_, good := newRealWorker(t)

	cfg := fastConfig()
	cfg.Policy = preferPolicy{preferred: "flaky"}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.reg.register(WorkerInfo{ID: "flaky", Addr: flaky.ts.URL, Workers: 1}, time.Now())
	c.reg.register(WorkerInfo{ID: "good", Addr: good.URL, Workers: 2}, time.Now())

	j, err := c.Submit(treeReq(128))
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j, 10*time.Second)
	if v.State != serve.StateDone {
		t.Fatalf("job failed: %s", v.Error)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts=%d, want exactly 2 (flaky then good)", v.Attempts)
	}
	if v.WorkerID != "good" {
		t.Fatalf("finished on %q, want good", v.WorkerID)
	}
	if got := flaky.acceptedCount(); got != 1 {
		t.Fatalf("flaky worker saw %d submissions, want 1 (exclusion failed)", got)
	}
	if c.Metrics().Retries != 1 {
		t.Fatalf("retries=%d, want 1", c.Metrics().Retries)
	}
}

// TestSaturatedWorkerReplacement: a 429 from a worker consumes NO attempt
// — the job re-places after the Retry-After window onto another worker,
// and the saturated worker is not hammered meanwhile.
func TestSaturatedWorkerReplacement(t *testing.T) {
	busy := newFakeWorker(t, http.StatusTooManyRequests, serve.StateQueued)
	_, calm := newRealWorker(t)

	cfg := fastConfig()
	cfg.Policy = preferPolicy{preferred: "busy"}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.reg.register(WorkerInfo{ID: "busy", Addr: busy.ts.URL, Workers: 1}, time.Now())
	c.reg.register(WorkerInfo{ID: "calm", Addr: calm.URL, Workers: 2}, time.Now())

	j, err := c.Submit(treeReq(128))
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j, 15*time.Second)
	if v.State != serve.StateDone {
		t.Fatalf("job failed: %s", v.Error)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts=%d, want 1 — saturation must not consume attempts", v.Attempts)
	}
	if v.WorkerID != "calm" {
		t.Fatalf("finished on %q, want calm", v.WorkerID)
	}
	if got := busy.acceptedCount(); got != 1 {
		t.Fatalf("busy worker was hit %d times, want 1 (Retry-After window ignored)", got)
	}
	snap := c.Metrics()
	if snap.Saturated != 1 {
		t.Fatalf("saturated re-placements=%d, want 1", snap.Saturated)
	}
	if snap.Retries != 0 {
		t.Fatalf("retries=%d, want 0 — a 429 is not a worker failure", snap.Retries)
	}
}

// TestHeartbeatExpiry drives the liveness protocol over HTTP: a worker
// registers, never heartbeats, and the sweep declares it dead; a heartbeat
// from an unknown worker gets 404; re-registering revives it under its old
// index.
func TestHeartbeatExpiry(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.HeartbeatExpiry = 40 * time.Millisecond
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	register := func() RegisterResponse {
		body, _ := json.Marshal(WorkerInfo{ID: "ghost", Addr: "http://127.0.0.1:1", Workers: 1})
		resp, err := http.Post(front.URL+"/cluster/v1/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: status %d", resp.StatusCode)
		}
		var reg RegisterResponse
		if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	first := register()
	if first.HeartbeatMillis != 10 || first.ExpiryMillis != 40 {
		t.Fatalf("register advertised %d/%dms, want 10/40", first.HeartbeatMillis, first.ExpiryMillis)
	}
	if got := c.Metrics().LiveWorkers; got != 1 {
		t.Fatalf("live workers after register: %d, want 1", got)
	}

	// No heartbeats: the sweep must declare the worker dead.
	waitFor(t, 2*time.Second, func() bool {
		s := c.Metrics()
		return s.LiveWorkers == 0 && s.WorkerDeaths == 1
	})

	// A heartbeat from a worker the coordinator no longer knows — here one
	// that never registered — is answered 404, the re-register signal.
	hb, _ := json.Marshal(Heartbeat{ID: "stranger"})
	resp, err := http.Post(front.URL+"/cluster/v1/heartbeat", "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat from unknown worker: status %d, want 404", resp.StatusCode)
	}

	// Re-registration revives the dead worker on its old trace lane.
	second := register()
	if second.Index != first.Index {
		t.Fatalf("re-register moved the worker from lane %d to %d", first.Index, second.Index)
	}
	if got := c.Metrics().LiveWorkers; got != 1 {
		t.Fatalf("live workers after re-register: %d, want 1", got)
	}
}

// TestSubmitShedsAtPendingCap: with no workers to drain jobs, the pending
// bound fills and the coordinator sheds with 429 + Retry-After — the same
// contract a saturated worker gives the coordinator.
func TestSubmitShedsAtPendingCap(t *testing.T) {
	cfg := fastConfig()
	cfg.PendingCap = 2
	cfg.DefaultTimeout = 500 * time.Millisecond // jobs give up quickly; no workers exist
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)

	for i := 0; i < 2; i++ {
		if _, err := c.Submit(treeReq(16)); err != nil {
			t.Fatalf("submit %d under cap: %v", i, err)
		}
	}
	if _, err := c.Submit(treeReq(16)); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit over cap: err=%v, want ErrBusy", err)
	}

	// The HTTP layer maps ErrBusy to 429 with the system-wide Retry-After.
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	body, _ := json.Marshal(treeReq(16))
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if c.Metrics().Shed < 2 {
		t.Fatalf("shed=%d, want at least 2", c.Metrics().Shed)
	}

	// With no workers ever appearing, the pending jobs fail at their
	// deadline and release their slots.
	waitFor(t, 5*time.Second, func() bool { return c.Metrics().Pending == 0 })
	if got := c.Metrics().Failed; got != 2 {
		t.Fatalf("failed=%d, want 2 (deadline with no workers)", got)
	}
}

// TestValidationRejects: malformed submissions are 400s at the coordinator
// — they never reserve a pending slot or reach a worker.
func TestValidationRejects(t *testing.T) {
	c, err := NewCoordinator(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	if _, err := c.Submit(serve.JobRequest{Type: "nonsense"}); err == nil {
		t.Fatal("bad job type accepted")
	}
	if _, err := c.Submit(serve.JobRequest{Type: serve.JobTree, Label: strings.Repeat("x", 300)}); err == nil {
		t.Fatal("overlong label accepted")
	}
	snap := c.Metrics()
	if snap.Rejected != 2 || snap.Pending != 0 {
		t.Fatalf("rejected=%d pending=%d, want 2/0", snap.Rejected, snap.Pending)
	}
}

// TestAgentMembership drives the worker-side loop against a scripted
// coordinator: register, heartbeats at the advertised cadence, re-register
// on 404, clean stop.
func TestAgentMembership(t *testing.T) {
	srv, _ := newRealWorker(t)

	var mu sync.Mutex
	registers, beats := 0, 0
	forget := false
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		registers++
		forget = false
		mu.Unlock()
		json.NewEncoder(w).Encode(RegisterResponse{Index: 0, HeartbeatMillis: 10, ExpiryMillis: 40})
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if err := json.NewDecoder(r.Body).Decode(&hb); err != nil || hb.ID == "" {
			t.Errorf("bad heartbeat body: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if forget {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		beats++
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	coord := httptest.NewServer(mux)
	defer coord.Close()

	a, err := StartAgent(AgentConfig{
		CoordinatorURL: coord.URL,
		ID:             "agent-under-test",
		Addr:           "http://127.0.0.1:1",
		Server:         srv,
		PoolWorkers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()

	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return registers == 1 && beats >= 3
	})

	// The coordinator forgets the worker (restart); the next heartbeat's
	// 404 must trigger a re-registration, after which beats resume.
	mu.Lock()
	forget = true
	prevBeats := beats
	mu.Unlock()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return registers >= 2 && beats > prevBeats
	})
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
