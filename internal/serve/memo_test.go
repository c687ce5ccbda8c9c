package serve

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bio"
)

func alignReqMemo(seed int64) JobRequest {
	return JobRequest{Type: JobAlign, Align: &bio.AlignJob{N: 8, Len: 40, Seed: seed}}
}

// TestSubmitAnswersFromJobCache: a finished job's result answers an
// identical later submission without queueing — the new job is born done,
// with the same result payload.
func TestSubmitAnswersFromJobCache(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 16, MemoBytes: 1 << 22})

	first, err := s.Submit(alignReqMemo(3))
	if err != nil {
		t.Fatal(err)
	}
	cold := waitTerminal(t, s, first.id)
	if cold.State != StateDone {
		t.Fatalf("cold job: %s (%s)", cold.State, cold.Error)
	}

	second, err := s.Submit(alignReqMemo(3))
	if err != nil {
		t.Fatal(err)
	}
	if second.id == first.id {
		t.Fatal("cache-answered submission reused the original job id")
	}
	warm := second.Status()
	if warm.State != StateDone {
		t.Fatalf("warm job not immediately done: %s", warm.State)
	}
	if !reflect.DeepEqual(warm.Align.Rows, cold.Align.Rows) || warm.Align.Consensus != cold.Align.Consensus {
		t.Fatal("cached result differs from the computed one")
	}

	m := s.Metrics()
	if m.MemoJobHits != 1 {
		t.Fatalf("memo_job_hits = %d, want 1", m.MemoJobHits)
	}
	if m.Memo == nil || m.Memo.Hits == 0 {
		t.Fatalf("memo stats block missing or empty: %+v", m.Memo)
	}
	// A different seed is different content: it must compute, not hit.
	third, err := s.Submit(alignReqMemo(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, third.id); st.State != StateDone {
		t.Fatalf("distinct job: %s (%s)", st.State, st.Error)
	}
	if got := s.Metrics().MemoJobHits; got != 1 {
		t.Fatalf("memo_job_hits = %d after distinct submission, want still 1", got)
	}

	shutdownServer(t, s)
	settleGoroutines(t, base)
}

// TestAdmittedCountsCacheAnswers: a submission answered from the job cache
// gets an id like a queued one, and /metrics counts it as admitted, so
// admitted + shed is the number of ids handed out (perfbench reads a
// worker's new jobs by that count).
func TestAdmittedCountsCacheAnswers(t *testing.T) {
	s := New(Config{Workers: 1, MemoBytes: 1 << 22})
	defer shutdownServer(t, s)
	first, err := s.Submit(alignReqMemo(5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, first.id)
	if _, err := s.Submit(alignReqMemo(5)); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.MemoJobHits != 1 || m.Admitted != 2 {
		t.Fatalf("memo_job_hits = %d, admitted = %d; want 1 and 2", m.MemoJobHits, m.Admitted)
	}
}

// TestSubmitCollapsesIdenticalInflight: while a job is queued, an
// identical submission attaches to it instead of executing twice.
func TestSubmitCollapsesIdenticalInflight(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, InnerWorkers: 1, QueueCap: 16, MemoBytes: 1 << 22})
	release := blockWorkers(t, s, 1)

	first, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 32, Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 32, Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("identical in-flight submission got job %s, want collapse onto %s",
			second.id, first.id)
	}
	if got := s.Metrics().Collapsed; got != 1 {
		t.Fatalf("collapsed = %d, want 1", got)
	}

	release()
	if st := waitTerminal(t, s, first.id); st.State != StateDone {
		t.Fatalf("collapsed job: %s (%s)", st.State, st.Error)
	}
	// Terminal jobs retire their in-flight entry: the next identical
	// submission is a cache answer, not a collapse.
	third, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 32, Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("submission after completion still collapsed onto the dead flight")
	}
	if st := third.Status(); st.State != StateDone {
		t.Fatalf("post-completion submission not cache-answered: %s", st.State)
	}

	shutdownServer(t, s)
	settleGoroutines(t, base)
}

// TestSubmitDuplicateIDConcurrentSingleExecution is the regression test
// for the in-flight duplicate-ID race: the job used to be published in the
// history only after the queue push, so a duplicate racing into the window
// found the idempotency key claimed but no job under it — and enqueued a
// second execution. The job is now published in the same critical section
// that claims the key, so concurrent duplicates always agree on one job.
// Memoization is off: this must hold with the bare dedup table.
func TestSubmitDuplicateIDConcurrentSingleExecution(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 64})

	const dups = 32
	req := JobRequest{ID: "same-client-key", Type: JobTree, Tree: &TreeSpec{Leaves: 64, Seed: 1}}
	jobs := make([]*Job, dups)
	var wg sync.WaitGroup
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()

	for i, j := range jobs {
		if j != jobs[0] {
			t.Fatalf("submission %d got job %s, others got %s — duplicate executed twice",
				i, j.id, jobs[0].id)
		}
	}
	m := s.Metrics()
	if m.Admitted != 1 {
		t.Fatalf("admitted = %d, want exactly 1 execution", m.Admitted)
	}
	if m.Deduped != dups-1 {
		t.Fatalf("deduped = %d, want %d", m.Deduped, dups-1)
	}
	if st := waitTerminal(t, s, jobs[0].id); st.State != StateDone {
		t.Fatalf("deduped job: %s (%s)", st.State, st.Error)
	}

	shutdownServer(t, s)
	settleGoroutines(t, base)
}

// TestSubmitMemoDisabledNoCollapse: without MemoBytes, identical
// submissions are independent jobs — the pre-memo contract.
func TestSubmitMemoDisabledNoCollapse(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 16})

	a, err := s.Submit(alignReqMemo(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(alignReqMemo(7))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("identical submissions collapsed with memoization disabled")
	}
	waitTerminal(t, s, a.id)
	waitTerminal(t, s, b.id)
	m := s.Metrics()
	if m.Collapsed != 0 || m.MemoJobHits != 0 || m.Memo != nil {
		t.Fatalf("memo accounting active while disabled: %+v", m)
	}

	shutdownServer(t, s)
	settleGoroutines(t, base)
}
