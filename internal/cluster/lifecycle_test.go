package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/store"
)

// watchTerminal spins on coordinator job id's visible state from before the
// job exists and, the moment it first reads terminal, checks that the store
// already holds its terminal record and no decisions. wait returns the
// job's final view.
func watchTerminal(t *testing.T, c *Coordinator, js *store.JobStore, id string) (wait func() JobView) {
	t.Helper()
	out := make(chan JobView, 1)
	go func() {
		defer close(out)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			j, ok := c.Job(id)
			if !ok || j.life.Live() {
				runtime.Gosched()
				continue
			}
			v := j.View()
			want := store.StatusFailed
			if v.State == serve.StateDone {
				want = store.StatusDone
			}
			var rec *store.JobState
			for _, r := range js.Jobs() {
				if r.ID == id {
					rec = &r
				}
			}
			if rec == nil || rec.Status != want {
				t.Errorf("%s visible as %s before its %s record was applied (%+v)", id, v.State, want, rec)
			}
			if d := js.Decisions(id); d != nil {
				t.Errorf("%s visible as %s with decisions still held: %v", id, v.State, d)
			}
			out <- v
			return
		}
		t.Errorf("%s never became terminal", id)
	}()
	return func() JobView { return <-out }
}

// TestCoordinatorSideEffectsPrecedeVisibility drives every motifctl
// terminal path — finish (a worker's done), fail (a worker's error),
// completion from a replayed decision, and retire (a shed push and a QoS
// preemption) — and checks each job's terminal record is applied when its
// state first becomes visible.
func TestCoordinatorSideEffectsPrecedeVisibility(t *testing.T) {
	dir := t.TempDir()
	seed := openClusterStore(t, dir)
	body, _ := json.Marshal(searchReq(0))
	if err := seed.Accepted("c000001", "", body); err != nil {
		t.Fatal(err)
	}
	ghost, _ := json.Marshal(jobs.Match{Seq: "ACGU", SeqIndex: 0, Pos: 0})
	seed.Decision("c000001", jobs.ReasonShortCircuit, ghost)
	seed.Close()

	js := openClusterStore(t, dir)
	defer js.Close()
	cfg := fastConfig()
	cfg.Store = js
	cfg.MemoCollapse = true
	cfg.FairQoS, cfg.TenantDepth, cfg.PlaceWorkers = true, 2, 1
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	// The replayed job completes as the coordinator starts, so this watch
	// may only see it already terminal.
	if v := watchTerminal(t, c, js, "c000001")(); v.State != serve.StateDone || !v.Search.ResumedDecision {
		t.Fatalf("decision completion: %s %+v", v.State, v.Search)
	}

	next := 1
	submit := func(req serve.JobRequest) (func() JobView, error) {
		next++
		if req.Tree != nil {
			req.Tree.Seed = int64(next) // distinct content: no collapse
		}
		wait := watchTerminal(t, c, js, fmt.Sprintf("c%06d", next))
		_, err := c.Submit(req)
		return wait, err
	}
	_, ws := newRealWorker(t)
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())
	done, err := submit(treeReq(16))
	if err != nil {
		t.Fatal(err)
	}
	if v := done(); v.State != serve.StateDone || v.Tree == nil {
		t.Fatalf("tree: %s (%s)", v.State, v.Error)
	}
	failed, err := submit(serve.JobRequest{Type: serve.JobStrand,
		Strand: &serve.StrandSpec{Source: "not a program ("}})
	if err != nil {
		t.Fatal(err)
	}
	if v := failed(); v.State != serve.StateError {
		t.Fatalf("bad strand job: %s", v.State)
	}

	// Without a live worker the one dispatcher holds the next job, and
	// tenant "a" queues behind it up to its bound.
	c.reg.sweep(time.Now().Add(24 * time.Hour))
	held, err := submit(qosTreeReq("z", ""))
	if err != nil {
		t.Fatal(err)
	}
	var low []func() JobView
	for i := 0; i < 2; i++ {
		wait, err := submit(qosTreeReq("a", "low"))
		if err != nil {
			t.Fatal(err)
		}
		low = append(low, wait)
	}
	shed, err := submit(qosTreeReq("a", "low"))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("tenant-bound submit = %v, want ErrBusy", err)
	}
	if v := shed(); v.State != serve.StateError {
		t.Fatalf("shed job: %s", v.State)
	}
	high, err := submit(qosTreeReq("a", "high"))
	if err != nil {
		t.Fatal(err)
	}
	if v := low[1](); v.State != serve.StatePreempted {
		t.Fatalf("victim: %s", v.State)
	}
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())
	for _, wait := range []func() JobView{held, low[0], high} {
		if v := wait(); v.State != serve.StateDone {
			t.Fatalf("queued tree: %s (%s)", v.State, v.Error)
		}
	}
}

// TestCoordinatorUnjournaledSubmitRefused: an accepted record the WAL
// cannot take answers 503, and the job is failed without being placed.
func TestCoordinatorUnjournaledSubmitRefused(t *testing.T) {
	// A raw store: this test counts the error the helper's check forbids.
	js, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = js
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	_, ws := newRealWorker(t)
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	body, _ := json.Marshal(treeReq(8))
	var ae *serve.APIError
	if _, err := frontClient(front).Submit(context.Background(), body); !errors.As(err, &ae) || ae.Kind != serve.ErrUnavailable {
		t.Fatalf("submit on a closed WAL answered %v, want 503", err)
	}
	j, ok := c.Job("c000001")
	if !ok {
		t.Fatal("refused job not pollable")
	}
	if v := j.View(); v.State != serve.StateError || v.Attempts != 0 {
		t.Fatalf("refused job: %s after %d placements", v.State, v.Attempts)
	}
	if m := c.Metrics(); m.Accepted != 0 || m.Store.Errors == 0 {
		t.Fatalf("accepted %d, store errors %d", m.Accepted, m.Store.Errors)
	}
}

// shutdownPolicy runs shutdown the first time its name is read after arm
// is set: Submit reads it (to label the job) after its drain check, so the
// shutdown closes the scheduler under a submission already past that
// check.
type shutdownPolicy struct {
	Policy
	arm  func()
	once sync.Once
}

func (p *shutdownPolicy) Name() string {
	if p.arm != nil {
		p.once.Do(p.arm)
	}
	return p.Policy.Name()
}

// TestCoordinatorRefusalAtShutdownNotReplaced: a submission refused
// because shutdown closed the scheduler under it answers draining, and the
// WAL holds nothing incomplete — a restart or a standby takeover never
// places it.
func TestCoordinatorRefusalAtShutdownNotReplaced(t *testing.T) {
	dir := t.TempDir()
	js := openClusterStore(t, dir)
	policy := &shutdownPolicy{Policy: preferPolicy{}}
	cfg := fastConfig()
	cfg.Store = js
	cfg.Policy = policy
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policy.arm = func() { shutdownCoordinator(t, c) }
	if _, err := c.Submit(treeReq(8)); err == nil {
		t.Fatal("submission accepted by a coordinator that shut down")
	}
	js.Close()

	reopened := openClusterStore(t, dir)
	defer reopened.Close()
	if inc := reopened.Incomplete(); len(inc) != 0 {
		t.Fatalf("refused job left incomplete in the WAL, to be placed again: %+v", inc)
	}
}
