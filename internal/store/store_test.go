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
	// Appends other than accepted report failures only through the
	// errors counter, so every test store must end with none.
	t.Cleanup(func() {
		if n := s.Metrics().Errors; n != 0 {
			t.Errorf("store counted %d append/fsync errors", n)
		}
	})
	return s
}

func TestJobStoreLifecycleReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if err := s.Accepted("j1", "client-a", []byte(`{"type":"tree"}`)); err != nil {
		t.Fatal(err)
	}
	s.Placed("j1", "w1")
	s.Finish("j1", []byte(`{"value":42}`), "")()
	if err := s.Accepted("j2", "client-b", []byte(`{"type":"tree","n":2}`)); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint("j2", 0, []byte(`7`))
	s.Checkpoint("j2", 3, []byte(`9`))
	if err := s.Accepted("j3", "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Finish("j3", nil, "boom")()
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
		s.Finish(id, []byte(`"ok"`), "")()
	}
	mustNil(t, s.Accepted("live", "key", []byte(`{"keep":true}`)))
	s.Checkpoint("live", 5, []byte(`11`))
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
				s.Checkpoint(id, i, []byte(fmt.Sprint(i)))
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
		s.Finish(id, []byte(`"ok"`), "")()
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
	s.Placed("x", "w")
	s.Checkpoint("x", 0, nil)
	s.Finish("x", nil, "")()
	s.Finish("x", nil, "nope")()
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
	s.Finish("j1", []byte(`{"value":42}`), "")()
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

// TestEarlyRecordsHeldForAccepted covers the other side of motifd's
// journal order: a fast job's checkpoint or decision can land before its
// accepted record. The store holds such records, counts them, keeps them
// through a compaction, and applies them when accepted arrives, live and
// on replay. A reopen fails a job whose accepted record never arrived.
func TestEarlyRecordsHeldForAccepted(t *testing.T) {
	check := func(s *JobStore, phase string) {
		t.Helper()
		if got := s.Decisions("j1"); string(got["shortcircuit"]) != `7` {
			t.Fatalf("%s: decisions = %v", phase, got)
		}
		if got := s.Checkpoints("j1"); string(got[3]) != `9` {
			t.Fatalf("%s: checkpoints = %v", phase, got)
		}
		if inc := s.Incomplete(); len(inc) != 1 || inc[0].ID != "j1" {
			t.Fatalf("%s: incomplete = %+v", phase, inc)
		}
	}
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: -1})
	s.Decision("j1", "shortcircuit", []byte(`7`))
	s.Checkpoint("j1", 3, []byte(`9`))
	if s.Decisions("j1") != nil || len(s.Jobs()) != 0 {
		t.Fatal("records applied before their job was accepted")
	}
	if got := s.Metrics().HeldRecords; got != 2 {
		t.Fatalf("held_records = %d, want 2", got)
	}
	mustNil(t, s.Compact())
	mustNil(t, s.Accepted("j1", "", []byte(`{}`)))
	check(s, "live")
	mustNil(t, s.Close())
	r := openTestStore(t, dir, Options{CompactAfter: -1})
	check(r, "replay")
	mustNil(t, r.Close())

	// Never accepted: the process died between the early records and the
	// accepted record, so no client was acknowledged. The reopen fails the
	// job rather than holding its records for whatever job next gets the
	// id, and that holds across a further restart.
	dir = t.TempDir()
	s = openTestStore(t, dir, Options{CompactAfter: -1})
	s.Decision("j1", "shortcircuit", []byte(`7`))
	s.Checkpoint("j1", 3, []byte(`9`))
	mustNil(t, s.Compact())
	mustNil(t, s.Close())
	for life := 0; life < 2; life++ {
		r = openTestStore(t, dir, Options{CompactAfter: -1})
		if d, c := r.Decisions("j1"), r.Checkpoints("j1"); d != nil || c != nil {
			t.Fatalf("life %d: dead job's records survived: decisions %v, checkpoints %v", life, d, c)
		}
		if js := r.Jobs(); len(js) != 1 || js[0].ID != "j1" || js[0].Status != StatusFailed {
			t.Fatalf("life %d: jobs = %+v, want j1 failed", life, js)
		}
		if inc := r.Incomplete(); len(inc) != 0 {
			t.Fatalf("life %d: incomplete = %+v", life, inc)
		}
		mustNil(t, r.Close())
	}
}

// TestStoreCountsErrors: records other than accepted report a failed append
// only through the errors counter; accepted also returns it.
func TestStoreCountsErrors(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustNil(t, s.Close())
	if s.Accepted("j1", "", nil) == nil {
		t.Fatal("accepted on a closed store returned nil")
	}
	s.Decision("j1", "shortcircuit", nil)
	s.Finish("j1", nil, "boom")()
	if got := s.Metrics().Errors; got != 3 {
		t.Fatalf("errors = %d, want 3", got)
	}
}
