package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// qosTreeReq is a tree job tagged with cluster QoS identity.
func qosTreeReq(tenant, class string) serve.JobRequest {
	return serve.JobRequest{
		Type:   serve.JobTree,
		Tree:   &serve.TreeSpec{Leaves: 64, Seed: 7},
		Tenant: tenant,
		Class:  class,
	}
}

// TestClusterQoSShedAndPreempt drives the coordinator's tenant-aware
// admission with a single dispatcher and no workers, so accepted jobs pile
// up in the scheduler: a tenant hitting its depth bound is shed with a
// drain-derived Retry-After, a high-class arrival preempts that tenant's
// youngest queued low job (terminal StatePreempted), and once a worker
// appears everything still queued drains to completion.
func TestClusterQoSShedAndPreempt(t *testing.T) {
	cfg := fastConfig()
	cfg.FairQoS = true
	cfg.TenantDepth = 2
	cfg.PlaceWorkers = 1
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)

	// j1 occupies the only dispatcher, spinning in placement backoff until
	// a worker registers; everything after it queues in the scheduler.
	j1, err := c.Submit(qosTreeReq("a", ""))
	if err != nil {
		t.Fatal(err)
	}
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for c.Metrics().QoS.Depth != want {
			if time.Now().After(deadline) {
				t.Fatalf("scheduler depth %d, want %d", c.Metrics().QoS.Depth, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitDepth(0) // j1 popped by the dispatcher

	var low []*Job
	for i := 0; i < 2; i++ {
		j, err := c.Submit(qosTreeReq("a", "low"))
		if err != nil {
			t.Fatalf("low submit %d: %v", i, err)
		}
		low = append(low, j)
	}
	// Tenant "a" is at its bound: an equal-class arrival is shed with a
	// Retry-After of at least the floor, and the busy identity holds.
	if _, err := c.Submit(qosTreeReq("a", "low")); !errors.Is(err, ErrBusy) {
		t.Fatalf("tenant-bound submit returned %v, want ErrBusy", err)
	} else if ra := serve.RetryAfter(err); ra < 1 {
		t.Fatalf("Retry-After %d, want >= 1", ra)
	}
	if got := c.Metrics().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// Another tenant still has room.
	jb, err := c.Submit(qosTreeReq("b", ""))
	if err != nil {
		t.Fatalf("quiet tenant shed alongside the flood: %v", err)
	}
	// A high-class arrival preempts tenant a's youngest queued low job.
	jh, err := c.Submit(qosTreeReq("a", "high"))
	if err != nil {
		t.Fatalf("high-class submit shed instead of preempting: %v", err)
	}
	if v := low[1].View(); v.State != serve.StatePreempted {
		t.Fatalf("victim state %s, want %s", v.State, serve.StatePreempted)
	} else if v.Error == "" {
		t.Fatal("preempted job carries no error message")
	}
	if got := c.Metrics().Preempted; got != 1 {
		t.Fatalf("preempted counter = %d, want 1", got)
	}

	// A worker arrives; the survivors all complete and the victim stays
	// preempted (running work is never touched).
	_, ws := newRealWorker(t)
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())
	for _, j := range []*Job{j1, low[0], jb, jh} {
		if v := waitTerminal(t, j, 10*time.Second); v.State != serve.StateDone {
			t.Fatalf("job %s finished %s: %s", v.ID, v.State, v.Error)
		}
	}
	if v := low[1].View(); v.State != serve.StatePreempted {
		t.Fatalf("victim resurrected as %s", v.State)
	}
	if got := c.Metrics().Pending; got != 0 {
		t.Fatalf("pending = %d after drain, want 0", got)
	}
}

// TestClusterQoSHeaderIdentityAndGlobalShed exercises the HTTP surface:
// X-Motif-Tenant/X-Motif-Class thread into the job view, and a global
// pending-bound shed answers 429 with a numeric Retry-After.
func TestClusterQoSHeaderIdentityAndGlobalShed(t *testing.T) {
	cfg := fastConfig()
	cfg.PendingCap = 2
	cfg.PlaceWorkers = 1
	// No worker ever registers here; a short job deadline lets the queued
	// jobs fail fast so shutdown's drain completes.
	cfg.DefaultTimeout = 200 * time.Millisecond
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	post := func(tenant, class string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(qosTreeReq("", ""))
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Motif-Tenant", tenant)
		req.Header.Set("X-Motif-Class", class)
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("acme", "high")
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if view.Tenant != "acme" || view.Class != "high" {
		t.Fatalf("header identity not threaded: tenant=%q class=%q", view.Tenant, view.Class)
	}

	resp = post("acme", "")
	resp.Body.Close()
	resp = post("acme", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After")
	}
}
