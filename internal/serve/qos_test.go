package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memo"
)

// treeReq is a small tree job tagged with QoS identity.
func treeReq(tenant, class string) JobRequest {
	return JobRequest{
		Type:   JobTree,
		Tree:   &TreeSpec{Leaves: 4},
		Tenant: tenant,
		Class:  class,
	}
}

func TestQoSFairShedsFloodingTenantOnly(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, QueueCap: 32, TenantDepth: 4, FairQoS: true})
	release := blockWorkers(t, s, 1)

	// The flood tenant fills its own bound; its fifth job is shed while the
	// global queue still has room for everyone else.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(treeReq("flood", "")); err != nil {
			t.Fatalf("flood submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(treeReq("flood", "")); err == nil {
		t.Fatal("flooding tenant not shed at its depth bound")
	}
	if _, err := s.Submit(treeReq("quiet", "")); err != nil {
		t.Fatalf("quiet tenant shed alongside the flood: %v", err)
	}
	snap := s.Metrics()
	if snap.QoS == nil || !snap.QoS.Fair {
		t.Fatalf("metrics missing fair qos block: %+v", snap.QoS)
	}
	if snap.QoS.Shed != 1 {
		t.Fatalf("qos shed = %d, want 1", snap.QoS.Shed)
	}

	release()
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

func TestQoSPreemptedJobIsTerminalAndRetriable(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, QueueCap: 32, TenantDepth: 2, FairQoS: true})
	release := blockWorkers(t, s, 1)

	var low []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(treeReq("a", "low"))
		if err != nil {
			t.Fatalf("low submit %d: %v", i, err)
		}
		low = append(low, j)
	}
	hi, err := s.Submit(treeReq("a", "high"))
	if err != nil {
		t.Fatalf("high submit preempted-shed instead of admitting: %v", err)
	}
	// The youngest low job was evicted: terminal, marked preempted, its
	// context canceled, still pollable.
	st := low[1].Status()
	if st.State != StatePreempted {
		t.Fatalf("victim state %s, want %s", st.State, StatePreempted)
	}
	if st.Error == "" {
		t.Fatal("preempted job carries no error message")
	}
	if low[1].ctx.Err() == nil {
		t.Fatal("preempted job's context not canceled")
	}
	if got := s.Metrics().Preempted; got != 1 {
		t.Fatalf("preempted counter = %d, want 1", got)
	}

	release()
	for _, id := range []string{low[0].id, hi.id} {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}
	// Running work is never preempted; the victim stays preempted.
	if st := low[1].Status(); st.State != StatePreempted {
		t.Fatalf("victim resurrected as %s", st.State)
	}
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

func TestQoSTenantHeadersAndRetryAfter(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, QueueCap: 2, FairQoS: true, TenantDepth: 2})
	srv := httptest.NewServer(s.Handler())
	client := srv.Client()
	release := blockWorkers(t, s, 1)

	post := func(tenant, class string) *http.Response {
		body, _ := json.Marshal(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 4}})
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Motif-Tenant", tenant)
		req.Header.Set("X-Motif-Class", class)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("acme", "low")
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.Tenant != "acme" || st.Class != "low" {
		t.Fatalf("header identity not threaded: tenant=%q class=%q", st.Tenant, st.Class)
	}

	// Fill the rest of the tenant bound, then overflow: 429 with a numeric
	// Retry-After at least the 1s floor.
	resp = post("acme", "low")
	resp.Body.Close()
	resp = post("acme", "low")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("bad Retry-After %q", resp.Header.Get("Retry-After"))
	}

	release()
	client.CloseIdleConnections()
	srv.Close()
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

// TestQoSWeightedDrainOrder saturates two tenants at weights 2:1 behind a
// blocked single-worker pool and checks the pool executes their admitted
// work in DRR order: two heavy jobs per light one.
func TestQoSWeightedDrainOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Workers: 1, QueueCap: 64, TenantDepth: 32, FairQoS: true,
		TenantWeights: map[string]int{"heavy": 2, "light": 1},
	})
	release := blockWorkers(t, s, 1)

	var mu struct {
		sync.Mutex
		order []string
	}
	var jobs []*Job
	push := func(tenant string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		j := &Job{
			req:    JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 4}, Tenant: tenant},
			ctx:    ctx,
			cancel: cancel,
			life:   NewLifecycle(time.Now()),
			worker: -1,
			testBody: func(context.Context) error {
				mu.Lock()
				mu.order = append(mu.order, tenant)
				mu.Unlock()
				return nil
			},
		}
		s.mu.Lock()
		j.id = s.ledger.Admit(j, "", memo.Key{}, false)
		s.mu.Unlock()
		if _, err := s.q.tryPush(j); err != nil {
			cancel()
			t.Fatalf("push %s: %v", tenant, err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 6; i++ {
		push("heavy")
	}
	for i := 0; i < 3; i++ {
		push("light")
	}

	release()
	for _, j := range jobs {
		if st := waitTerminal(t, s, j.id); st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", j.id, st.State, st.Error)
		}
	}
	mu.Lock()
	got := strings.Join(mu.order, " ")
	mu.Unlock()
	want := "heavy heavy light heavy heavy light heavy heavy light"
	if got != want {
		t.Fatalf("drain order %q, want %q", got, want)
	}
	shutdownServer(t, s)
	settleGoroutines(t, base)
}
