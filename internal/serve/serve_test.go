package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bio"
)

// settleGoroutines waits for the goroutine count to drop back to at most
// base, tolerating slow unwinds up to a deadline.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitBody enqueues a job whose body is fn — the deterministic way to
// hold pool workers busy. The job is typed as a tree job so the batcher
// never coalesces blockers.
func submitBody(t *testing.T, s *Server, fn func(ctx context.Context) error) *Job {
	t.Helper()
	return pushBody(t, s, JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 4}}, fn)
}

// pushBody admits and queues req with fn as its body, past validation and
// the journal.
func pushBody(t *testing.T, s *Server, req JobRequest, fn func(ctx context.Context) error) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	task := &Task[*Job]{req: req, ctx: ctx, cancel: cancel, life: NewLifecycle(time.Now()), journaled: journaledAlready}
	s.host.mu.Lock()
	s.host.admitLocked(task)
	s.host.mu.Unlock()
	task.job.testBody = fn
	if _, err := s.host.sched.Push(task, req.Tenant, req.qosClass()); err != nil {
		cancel()
		t.Fatalf("pushBody: %v", err)
	}
	s.host.met.admitted.Add(1)
	return task.job
}

// blockWorkers occupies n pool workers and returns a release function.
func blockWorkers(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	releaseCh := make(chan struct{})
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		submitBody(t, s, func(ctx context.Context) error {
			started <- struct{}{}
			<-releaseCh
			return nil
		})
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers did not pick up blockers")
		}
	}
	return func() { close(releaseCh) }
}

// waitTerminal waits until the job's outcome is bound.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.life.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in %s", id, j.life.State())
	}
	return j.Status()
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// submitJob posts req to the server behind ts through the job API client.
func submitJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, error) {
	t.Helper()
	return NewClient[JobStatus](ts.URL, ts.Client()).Submit(context.Background(), mustJSON(t, req))
}

func TestAlignJobEndToEnd(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())

	st, err := submitJob(t, ts, JobRequest{
		Type:  JobAlign,
		Align: &bio.AlignJob{N: 6, Len: 40, Seed: 3},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit returned %+v", st)
	}

	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Align == nil || len(final.Align.Rows) != 6 || final.Align.Columns < 40 {
		t.Fatalf("bad align result: %+v", final.Align)
	}
	if final.Align.Units != 5 {
		t.Fatalf("units = %d, want 5 internal nodes", final.Align.Units)
	}
	if final.Worker < 0 {
		t.Fatalf("worker not recorded: %+v", final)
	}

	// Poll over HTTP too: same status document.
	polled, err := NewClient[JobStatus](ts.URL, ts.Client()).Status(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.State != StateDone || polled.Align == nil {
		t.Fatalf("HTTP poll returned %+v", polled)
	}

	ts.Close()
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

func TestTreeAndStrandJobs(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8})
	defer shutdownServer(t, s)

	tj, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 64, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, tj.id)
	if st.State != StateDone || st.Tree == nil {
		t.Fatalf("tree job: %+v", st)
	}
	if st.Tree.Units != 63 {
		t.Fatalf("tree units = %d, want 63", st.Tree.Units)
	}

	sj, err := s.Submit(JobRequest{Type: JobStrand, Strand: &StrandSpec{
		Source: "main :- writeln(ok).",
	}})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s, sj.id)
	if st.State != StateDone || st.Strand == nil {
		t.Fatalf("strand job: %+v", st)
	}
	if !strings.Contains(st.Strand.Output, "ok") {
		t.Fatalf("strand output = %q", st.Strand.Output)
	}
	if st.Strand.Reductions < 1 {
		t.Fatalf("strand reductions = %d", st.Strand.Reductions)
	}
}

func TestQueueFullShedsAndRecovers(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	release := blockWorkers(t, s, 1)

	tiny := func(seed int64) JobRequest {
		return JobRequest{Type: JobAlign, Align: &bio.AlignJob{N: 4, Len: 20, Seed: seed}}
	}
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := submitJob(t, ts, tiny(int64(i)))
		if err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	// Queue is at its bound: the next request is shed with 429 +
	// Retry-After instead of growing memory. The header is checked on the
	// wire, since the client fills in a default floor when it is absent.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, tiny(9))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.Metrics().Shed != 1 {
		t.Fatalf("shed = %d, want 1", s.Metrics().Shed)
	}

	// Drain, then the same request is accepted again.
	release()
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("queued job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	st, err := submitJob(t, ts, tiny(9))
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	if fin := waitTerminal(t, s, st.ID); fin.State != StateDone {
		t.Fatalf("post-drain job ended %s", fin.State)
	}

	ts.Close()
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, QueueCap: 8})
	release := blockWorkers(t, s, 2)

	// Two more jobs sit in the queue behind the blockers.
	q1, err := s.Submit(JobRequest{Type: JobAlign, Align: &bio.AlignJob{N: 4, Len: 20, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 32}})
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining: new work is rejected immediately.
	waitFor(t, func() bool {
		_, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 8}})
		return err != nil
	}, "submission rejection during drain")

	release()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Everything admitted before the drain completed.
	for _, id := range []string{q1.id, q2.id} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("in-flight job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	settleGoroutines(t, base)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSmallAlignJobsBatchIntoOneFarmDispatch(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16})
	defer shutdownServer(t, s)
	release := blockWorkers(t, s, 1)

	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobRequest{Type: JobAlign,
			Align: &bio.AlignJob{N: 4, Len: 20, Seed: int64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.id)
	}
	release()

	maxBatch := 0
	for _, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("batched job %s ended %s: %s", id, st.State, st.Error)
		}
		if st.BatchSize > maxBatch {
			maxBatch = st.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no batching happened: max batch size %d", maxBatch)
	}
	m := s.Metrics()
	if m.Batch.Dispatches < 1 || m.Batch.BatchedJobs < int64(maxBatch) {
		t.Fatalf("batch metrics not recorded: %+v", m.Batch)
	}
}

func TestDeadlineExpiredInQueue(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	defer shutdownServer(t, s)
	release := blockWorkers(t, s, 1)

	j, err := s.Submit(JobRequest{Type: JobAlign, DeadlineMillis: 25,
		Align: &bio.AlignJob{N: 4, Len: 20}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	release()

	st := waitTerminal(t, s, j.id)
	if st.State != StateError || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("queued-past-deadline job: state=%s err=%q", st.State, st.Error)
	}
}

func TestDeadlineCancelsMidReduction(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	defer shutdownServer(t, s)

	// Big enough that the reduction cannot finish in 10ms; the deadline
	// context must abort it between node evaluations.
	j, err := s.Submit(JobRequest{Type: JobAlign, DeadlineMillis: 10,
		Align: &bio.AlignJob{N: 20, Len: 300, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, j.id)
	if st.State != StateError || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job: state=%s err=%q", st.State, st.Error)
	}
}

func TestHundredConcurrentAlignJobs(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 8, QueueCap: 256})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	const n = 100
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(JobRequest{Type: JobAlign,
				Align: &bio.AlignJob{N: 4, Len: 24, Seed: int64(i)}})
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs <- err
				return
			}
			ids[i] = st.ID
		}()
	}

	// While the burst is in flight, /metrics must keep serving per-worker
	// busy/idle data.
	metricsOK := make(chan error, 1)
	go func() {
		for k := 0; k < 5; k++ {
			resp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				metricsOK <- err
				return
			}
			var snap MetricsSnapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				metricsOK <- err
				return
			}
			if len(snap.PerWorker) != 8 {
				metricsOK <- fmt.Errorf("per_worker rows = %d, want 8", len(snap.PerWorker))
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		metricsOK <- nil
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-metricsOK; err != nil {
		t.Fatalf("metrics during run: %v", err)
	}

	for i, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %d (%s) ended %s: %s", i, id, st.State, st.Error)
		}
		if st.Align == nil || len(st.Align.Rows) != 4 {
			t.Fatalf("job %d bad result: %+v", i, st.Align)
		}
	}

	m := s.Metrics()
	if m.Admitted != n || m.Done != n || m.Shed != 0 || m.Failed != 0 {
		t.Fatalf("counters after burst: %+v", m)
	}
	var busy float64
	for _, ws := range m.PerWorker {
		busy += ws.BusyMS
	}
	if busy <= 0 {
		t.Fatal("no per-worker busy time recorded")
	}

	ts.Close()
	client.CloseIdleConnections()
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	j, err := s.Submit(JobRequest{Type: JobAlign, Align: &bio.AlignJob{N: 4, Len: 20}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j.id)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Done != 1 || snap.Latency.Count != 1 || snap.Latency.P95MS <= 0 {
		t.Fatalf("metrics snapshot: %+v", snap)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	if !strings.Contains(text, "busy/idle timeline") || !strings.Contains(text, "worker") {
		t.Fatalf("text metrics missing timeline:\n%s", text)
	}

	resp, err = ts.Client().Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Total  int64 `json:"total"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	kinds := map[string]bool{}
	for _, e := range tr.Events {
		kinds[e.Kind] = true
	}
	if !kinds["enqueue"] || !kinds["exec-start"] || !kinds["exec-finish"] || !kinds["busy"] || !kinds["idle"] {
		t.Fatalf("trace kinds = %v", kinds)
	}

	resp, err = ts.Client().Get(ts.URL + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome := readAll(t, resp)
	if len(chrome) == 0 || !strings.Contains(chrome, "exec") {
		t.Fatalf("chrome trace empty or wrong: %.120s", chrome)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := copyAll(&b, resp); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func copyAll(b *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		b.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

func TestRejectsMalformedRequests(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	cases := []struct {
		name string
		req  JobRequest
	}{
		{"unknown type", JobRequest{Type: "quantum"}},
		{"one sequence", JobRequest{Type: JobAlign, Align: &bio.AlignJob{Seqs: []string{"ACGU"}}}},
		{"illegal bases", JobRequest{Type: JobAlign, Align: &bio.AlignJob{Seqs: []string{"ACGU", "XYZ!"}}}},
		{"tree out of range", JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: -5}}},
		{"bad tree shape", JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 8, Shape: "moebius"}}},
		{"strand without source", JobRequest{Type: JobStrand, Strand: &StrandSpec{}}},
		{"mismatched spec", JobRequest{Type: JobAlign, Tree: &TreeSpec{Leaves: 8}}},
	}
	c := NewClient[JobStatus](ts.URL, ts.Client())
	for _, tc := range cases {
		if _, err := submitJob(t, ts, tc.req); apiError(t, err).Kind != ErrRejected {
			t.Errorf("%s: %v, want 400", tc.name, err)
		}
	}
	if _, err := c.Submit(context.Background(), []byte("{not json")); apiError(t, err).Kind != ErrRejected {
		t.Fatalf("bad JSON: %v, want 400", err)
	}
	if _, err := c.Status(context.Background(), "j999999"); apiError(t, err).Kind != ErrNotFound {
		t.Fatalf("unknown id: %v, want 404", err)
	}

	if got := s.Metrics().Rejected; got < int64(len(cases)) {
		t.Fatalf("rejected counter = %d, want >= %d", got, len(cases))
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 16, MaxJobs: 4})
	defer shutdownServer(t, s)
	var last *Job
	for i := 0; i < 10; i++ {
		j, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 8, Seed: int64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, j.id)
		last = j
	}
	s.host.mu.Lock()
	stored := len(s.host.ledger.jobs)
	s.host.mu.Unlock()
	if stored > 4 {
		t.Fatalf("history holds %d jobs, want <= 4", stored)
	}
	if _, ok := s.Job(last.id); !ok {
		t.Fatal("newest job evicted")
	}
}
