package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func openTestStore(t *testing.T, dir string, opts Options) *JobStore {
	t.Helper()
	opts.NoSync = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestJobStoreLifecycleReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if err := s.Accepted("j1", "client-a", []byte(`{"type":"tree"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Placed("j1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Done("j1", []byte(`{"value":42}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Accepted("j2", "client-b", []byte(`{"type":"tree","n":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("j2", 0, []byte(`7`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("j2", 3, []byte(`9`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Accepted("j3", "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Failed("j3", "boom"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir, Options{})
	defer r.Close()
	jobs := r.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	byID := map[string]JobState{}
	for _, js := range jobs {
		byID[js.ID] = js
	}
	j1 := byID["j1"]
	if j1.Status != StatusDone || j1.Worker != "w1" || j1.Client != "client-a" ||
		string(j1.Result) != `{"value":42}` {
		t.Errorf("j1 replayed wrong: %+v", j1)
	}
	j3 := byID["j3"]
	if j3.Status != StatusFailed || j3.Error != "boom" {
		t.Errorf("j3 replayed wrong: %+v", j3)
	}
	inc := r.Incomplete()
	if len(inc) != 1 || inc[0].ID != "j2" {
		t.Fatalf("incomplete = %+v, want just j2", inc)
	}
	ck := r.Checkpoints("j2")
	if len(ck) != 2 || string(ck[0]) != `7` || string(ck[3]) != `9` {
		t.Errorf("checkpoints replayed wrong: %v", ck)
	}
	// Terminal jobs carry no live checkpoints.
	if ck := r.Checkpoints("j1"); ck != nil {
		t.Errorf("done job kept checkpoints: %v", ck)
	}
	m := r.Metrics()
	if m.ReplayedRecords != 8 {
		t.Errorf("replayed_records = %d, want 8", m.ReplayedRecords)
	}
	if m.TrackedJobs != 3 || m.IncompleteJobs != 1 {
		t.Errorf("tracked/incomplete = %d/%d, want 3/1", m.TrackedJobs, m.IncompleteJobs)
	}
}

func TestJobStoreCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{SegmentBytes: 256, CompactAfter: -1, MaxJobs: 4})
	// Churn far past MaxJobs: the evicted terminal jobs' records become
	// garbage for compaction to drop.
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("j%03d", i)
		mustNil(t, s.Accepted(id, "", []byte(`{"i":`+fmt.Sprint(i)+`}`)))
		mustNil(t, s.Done(id, []byte(`"ok"`)))
	}
	mustNil(t, s.Accepted("live", "key", []byte(`{"keep":true}`)))
	mustNil(t, s.Checkpoint("live", 5, []byte(`11`)))
	segsBefore := s.w.segments()
	recordsBefore := s.Metrics().WALRecords
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", m.Compactions)
	}
	if m.WALRecords >= recordsBefore || s.w.segments() >= segsBefore {
		t.Errorf("compaction did not shrink the log: %d->%d records, %d->%d segments",
			recordsBefore, m.WALRecords, segsBefore, s.w.segments())
	}
	s.Close()

	r := openTestStore(t, dir, Options{MaxJobs: 4})
	defer r.Close()
	inc := r.Incomplete()
	if len(inc) != 1 || inc[0].ID != "live" || inc[0].Client != "key" {
		t.Fatalf("incomplete after compaction = %+v", inc)
	}
	if ck := r.Checkpoints("live"); string(ck[5]) != `11` {
		t.Errorf("checkpoint lost across compaction: %v", ck)
	}
	// Only the MaxJobs-bounded history (plus the live job) survives.
	if n := len(r.Jobs()); n > 5 {
		t.Errorf("%d jobs survived compaction, want <= 5", n)
	}
}

// TestJobStoreConcurrentCheckpointWhileCompact hammers Checkpoint while
// compactions run — the exact interleaving the serving layer produces under
// load. Run under -race in CI.
func TestJobStoreConcurrentCheckpointWhileCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{SegmentBytes: 512, CompactAfter: -1})
	const jobs, nodes = 4, 40
	for g := 0; g < jobs; g++ {
		mustNil(t, s.Accepted(fmt.Sprintf("j%d", g), "", []byte(`{}`)))
	}
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("j%d", g)
			for i := 0; i < nodes; i++ {
				if err := s.Checkpoint(id, i, []byte(fmt.Sprint(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s.Close()

	r := openTestStore(t, dir, Options{})
	defer r.Close()
	for g := 0; g < jobs; g++ {
		ck := r.Checkpoints(fmt.Sprintf("j%d", g))
		if len(ck) != nodes {
			t.Fatalf("job j%d replayed %d checkpoints, want %d", g, len(ck), nodes)
		}
		for i := 0; i < nodes; i++ {
			var v int
			if err := json.Unmarshal(ck[i], &v); err != nil || v != i {
				t.Fatalf("j%d node %d = %s (%v)", g, i, ck[i], err)
			}
		}
	}
}

func TestJobStoreAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{SegmentBytes: 128, CompactAfter: 3, MaxJobs: 2})
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("j%02d", i)
		mustNil(t, s.Accepted(id, "", []byte(`{"pad":"xxxxxxxxxxxxxxxx"}`)))
		mustNil(t, s.Done(id, []byte(`"ok"`)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
}

func TestNilJobStoreIsValid(t *testing.T) {
	var s *JobStore
	mustNil(t, s.Accepted("x", "", nil))
	mustNil(t, s.Placed("x", "w"))
	mustNil(t, s.Checkpoint("x", 0, nil))
	mustNil(t, s.Done("x", nil))
	mustNil(t, s.Failed("x", "nope"))
	mustNil(t, s.Compact())
	mustNil(t, s.Close())
	s.NoteCheckpointHits(3)
	if s.Jobs() != nil || s.Incomplete() != nil || s.Checkpoints("x") != nil || s.Metrics() != nil {
		t.Error("nil store returned non-nil state")
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestTerminalRecordBeforeAccepted covers motifd's journal order: accepted
// is appended after the enqueue, so a fast job's done record can land
// first. The job must stay done, live and across replay, with the late
// accepted record still supplying its client id and request.
func TestTerminalRecordBeforeAccepted(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: -1})
	mustNil(t, s.Done("j1", []byte(`{"value":42}`)))
	mustNil(t, s.Accepted("j1", "client-a", []byte(`{"type":"tree"}`)))
	check := func(s *JobStore) {
		t.Helper()
		jobs := s.Jobs()
		if len(jobs) != 1 {
			t.Fatalf("jobs = %+v, want one", jobs)
		}
		js := jobs[0]
		if js.Status != StatusDone || string(js.Result) != `{"value":42}` ||
			js.Client != "client-a" || string(js.Request) != `{"type":"tree"}` {
			t.Fatalf("job state = %+v", js)
		}
		if inc := s.Incomplete(); len(inc) != 0 {
			t.Fatalf("incomplete = %+v, want none", inc)
		}
	}
	check(s)
	mustNil(t, s.Close())
	r := openTestStore(t, dir, Options{})
	defer r.Close()
	check(r)
}
