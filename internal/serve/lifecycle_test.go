package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
)

func TestBindOnce(t *testing.T) {
	l := NewLifecycle(time.Now())
	if !l.Start() || l.State() != StateRunning {
		t.Fatalf("started lifecycle is %s", l.State())
	}
	var order []string
	first := Outcome{State: StateDone, Results: Results{Tree: &TreeResult{Value: 24}}}
	err := l.Bind(first, func(Outcome) func() {
		order = append(order, "settle:"+string(l.State()))
		return func() { order = append(order, "after:"+string(l.State())) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[settle:running after:done]" {
		t.Fatalf("side effects ran as %s: settle must precede publication, after follow it", got)
	}
	select {
	case <-l.Done():
	default:
		t.Fatal("Done not closed by Bind")
	}

	ran := false
	err = l.Bind(Outcome{State: StateError, Err: "late"}, func(Outcome) func() {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrBound) {
		t.Fatalf("second Bind = %v, want ErrBound", err)
	}
	if ran {
		t.Fatal("second Bind ran its side effects")
	}
	if snap := l.Snapshot(); snap.State != StateDone || snap.Err != "" || snap.Results.Tree.Value != 24 {
		t.Fatalf("second Bind overwrote the outcome: %+v", snap)
	}
	if l.Start() {
		t.Fatal("Start succeeded on a bound lifecycle")
	}
}

// watchTerminal spins on job id's visible state from before the job exists
// and, the moment it first reads terminal, checks that every terminal side
// effect already happened: the store holds the terminal record and no
// decisions, a cacheable success is in the memo, and the ledger no longer
// binds the job's content key. wait returns the job's final status.
func watchTerminal(t *testing.T, s *Server, js *store.JobStore, id string, cacheable bool) (wait func() JobStatus) {
	t.Helper()
	out := make(chan JobStatus, 1)
	go func() {
		defer close(out)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			j, ok := s.Job(id)
			if !ok || j.life.Live() {
				runtime.Gosched()
				continue
			}
			st := j.Status()
			want := store.StatusFailed
			if st.State == StateDone {
				want = store.StatusDone
			}
			var rec *store.JobState
			for _, r := range js.Jobs() {
				if r.ID == id {
					rec = &r
				}
			}
			if rec == nil || rec.Status != want {
				t.Errorf("%s visible as %s before its %s record was applied (%+v)", id, st.State, want, rec)
			}
			if d := js.Decisions(id); d != nil {
				t.Errorf("%s visible as %s with decisions still held: %v", id, st.State, d)
			}
			if j.hasKey {
				if v, _ := s.memo.Peek(j.key); cacheable && st.State == StateDone && v == nil {
					t.Errorf("%s visible as done before its memo fill", id)
				}
				s.mu.Lock()
				bound := s.ledger.byContent[j.key] == id
				s.mu.Unlock()
				if bound {
					t.Errorf("%s visible as %s with its content key still bound", id, st.State)
				}
			}
			out <- st
			return
		}
		t.Errorf("%s never became terminal", id)
	}()
	return func() JobStatus { return <-out }
}

// TestTerminalSideEffectsPrecedeVisibility drives every motifd terminal
// path — a run that succeeds, one that fails, a deadline spent queued, a
// QoS preemption, and a cache-answered submit — and checks each job's side
// effects are complete when its terminal state first becomes visible.
func TestTerminalSideEffectsPrecedeVisibility(t *testing.T) {
	js := openServeStore(t, t.TempDir())
	defer js.Close()
	s := New(Config{Workers: 1, InnerWorkers: 2, QueueCap: 16, TenantDepth: 2,
		FairQoS: true, MemoBytes: 1 << 22, Store: js})
	defer shutdownServer(t, s)
	next := 0
	submit := func(req JobRequest, cacheable bool) (*Job, func() JobStatus) {
		t.Helper()
		next++
		wait := watchTerminal(t, s, js, fmt.Sprintf("j%06d", next), cacheable)
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j, wait
	}
	// Each job has its own tenant, so fair QoS queues them all.
	search := JobRequest{Type: JobSearch, Tenant: "s", Search: &jobs.SearchSpec{
		Pattern: "ACGU", Fasta: ">a\nUUACGUAA\n>b\nACGUACGU\n", FirstOnly: true}}

	tree := JobRequest{Type: JobTree, Tenant: "t", Tree: &TreeSpec{Leaves: 16, Seed: 3}}

	release := blockWorkers(t, s, 1)
	next++ // the blocker took j000001
	_, decided := submit(search, false)
	_, done := submit(tree, true)
	_, failed := submit(JobRequest{Type: JobStrand, Tenant: "f",
		Strand: &StrandSpec{Source: "not a program ("}}, false)
	_, queued := submit(JobRequest{Type: JobTree, Tenant: "q", DeadlineMillis: 20,
		Tree: &TreeSpec{Leaves: 8}}, false)
	time.Sleep(40 * time.Millisecond)
	release()
	if st := decided(); st.State != StateDone || st.Decision == nil {
		t.Fatalf("search: %s (%s), decision %v", st.State, st.Error, st.Decision)
	}
	if st := done(); st.State != StateDone {
		t.Fatalf("tree: %s (%s)", st.State, st.Error)
	}
	if st := failed(); st.State != StateError {
		t.Fatalf("bad strand job: %s", st.State)
	}
	if st := queued(); st.State != StateError {
		t.Fatalf("queued past deadline: %s", st.State)
	}
	if j, cached := submit(tree, true); cached().State != StateDone || j.Status().Tree == nil {
		t.Fatal("cache-answered tree job not done")
	}

	release = blockWorkers(t, s, 1)
	next++
	var low []func() JobStatus
	for i := 0; i < 2; i++ {
		req := treeReq("a", "low")
		req.Tree.Seed = int64(i) // distinct content: no collapse
		_, wait := submit(req, true)
		low = append(low, wait)
	}
	req := treeReq("a", "high")
	req.Tree.Seed = 2
	_, hi := submit(req, true)
	if st := low[1](); st.State != StatePreempted {
		t.Fatalf("victim: %s", st.State)
	}
	release()
	for _, wait := range []func() JobStatus{low[0], hi} {
		if st := wait(); st.State != StateDone {
			t.Fatalf("tree: %s (%s)", st.State, st.Error)
		}
	}
}

// TestUnjournaledSubmitRefused: an accepted record the WAL cannot take
// refuses the job — Submit answers ErrNotJournaled (503 over HTTP), the job
// is failed without running, and the store counts the error.
func TestUnjournaledSubmitRefused(t *testing.T) {
	// A raw store: this test counts the error the helper's check forbids.
	js, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueCap: 8, Store: js})
	defer shutdownServer(t, s)
	release := blockWorkers(t, s, 1)
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 8}})
	if !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("Submit on a closed WAL = %v, want ErrNotJournaled", err)
	}
	j, ok := s.Job("j000002")
	if !ok {
		t.Fatal("refused job not pollable")
	}
	release()
	if st := waitTerminal(t, s, j.id); st.State != StateError || st.Tree != nil {
		t.Fatalf("refused job: %s %+v", st.State, st.Results)
	}
	if m := s.Metrics(); m.Admitted != 1 || m.Store.Errors == 0 {
		t.Fatalf("admitted %d (want only the blocker), store errors %d", m.Admitted, m.Store.Errors)
	}
	front := httptest.NewServer(s.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"tree","tree":{"leaves":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP submit on a closed WAL answered %d, want 503", resp.StatusCode)
	}
}

// TestReplayUnrecoverableRecords: a journaled done result or request that
// no longer decodes replays as a failed job, never as a done job with an
// empty answer or as work to run.
func TestReplayUnrecoverableRecords(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	good := []byte(`{"type":"tree","tree":{"leaves":8}}`)
	mustNil := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustNil(js.Accepted("j000001", "key-1", good))
	js.Finish("j000001", []byte(`{"tree":7}`), "")()
	mustNil(js.Accepted("j000002", "", []byte(`{"type":"nope"}`)))
	mustNil(js.Close())

	js2 := openServeStore(t, dir)
	s := New(Config{Workers: 1, QueueCap: 4, Store: js2})
	defer func() {
		shutdownServer(t, s)
		mustNil(js2.Close())
	}()
	for id, want := range map[string]string{
		"j000001": "unrecoverable journaled result",
		"j000002": "unrecoverable journaled request",
	} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("%s not replayed", id)
		}
		if st := j.Status(); st.State != StateError || st.Error != want || st.Tree != nil {
			t.Fatalf("%s replayed as %s %q %+v, want error %q", id, st.State, st.Error, st.Results, want)
		}
	}
	// The done record stays final in the store; the bad request is
	// journaled failed so the next restart does not replay it again.
	for _, st := range js2.Jobs() {
		if want := map[string]store.Status{"j000001": store.StatusDone, "j000002": store.StatusFailed}[st.ID]; st.Status != want {
			t.Fatalf("store holds %s as %s, want %s", st.ID, st.Status, want)
		}
	}
}
