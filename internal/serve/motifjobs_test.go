package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestMotifJobsEndToEnd drives one job of each new type through the pool
// and checks the result blocks and the per-type metrics block.
func TestMotifJobsEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 16})
	defer shutdownServer(t, s)

	js, err := s.Submit(JobRequest{Type: JobSearch, Search: &jobs.SearchSpec{
		Pattern: "ACGU", Fasta: ">a\nACGUACGUAA\n>b\nUUACGUUUUU\n"}})
	if err != nil {
		t.Fatal(err)
	}
	jg, err := s.Submit(JobRequest{Type: JobGrid, Grid: &jobs.GridSpec{
		Rows: 16, Cols: 16, Iterations: 50_000, Tolerance: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	jo, err := s.Submit(JobRequest{Type: JobSort, Sort: &jobs.SortSpec{N: 20_000, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}

	sst := waitTerminal(t, s, js.id)
	if sst.State != StateDone || sst.Search == nil || sst.Search.Total != 3 {
		t.Fatalf("search: %+v", sst)
	}
	gst := waitTerminal(t, s, jg.id)
	if gst.State != StateDone || gst.Grid == nil || !gst.Grid.Converged {
		t.Fatalf("grid: %+v", gst)
	}
	ost := waitTerminal(t, s, jo.id)
	if ost.State != StateDone || ost.Sort == nil || !ost.Sort.Sorted {
		t.Fatalf("sort: %+v", ost)
	}

	mo := s.Metrics().Motif
	if mo == nil {
		t.Fatal("no motif metrics block")
	}
	if mo.Search.Done != 1 || mo.Grid.Done != 1 || mo.Sort.Done != 1 {
		t.Fatalf("motif block: %+v", mo)
	}
	if mo.Grid.Converged != 1 || mo.Search.Units == 0 || mo.Sort.Units == 0 {
		t.Fatalf("motif block: %+v", mo)
	}
}

// TestMotifJobValidation checks the new types' admission-time rejections.
func TestMotifJobValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	defer shutdownServer(t, s)
	bad := []JobRequest{
		{Type: JobSearch}, // missing spec
		{Type: JobSearch, Search: &jobs.SearchSpec{Pattern: "XYZ"}}, // bad alphabet
		{Type: JobGrid, Grid: &jobs.GridSpec{Rows: 1}},              // too small
		{Type: JobSort, Sort: &jobs.SortSpec{Dist: "zipf"}},         // bad dist
		{Type: JobGrid, Sort: &jobs.SortSpec{}},                     // wrong spec for type
		{Type: JobSort, Search: &jobs.SearchSpec{Pattern: "A"}},     // wrong spec for type
		{Type: JobAlign, Grid: &jobs.GridSpec{}},                    // new spec on old type
	}
	for i, req := range bad {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("request %d admitted: %+v", i, req)
		}
	}
	// Grid and sort default their specs; search requires one.
	for _, req := range []JobRequest{{Type: JobGrid}, {Type: JobSort}} {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatalf("%s without spec rejected: %v", req.Type, err)
		}
		if st := waitTerminal(t, s, j.id); st.State != StateDone {
			t.Fatalf("%s default job: %+v", req.Type, st)
		}
	}
}

// TestSearchDecisionSurvivesRestart is the headline recovery case: a
// FirstOnly search that journaled its shortcircuit decision and was then
// SIGKILLed must, on restart over the same WAL, complete to the journaled
// solution without re-exploring. The planted decision names a match that
// exploration could never produce, so any re-exploration would be caught.
func TestSearchDecisionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	req := JobRequest{Type: JobSearch, Search: &jobs.SearchSpec{
		Pattern: "ACGU", Fasta: ">a\nACGUACGUAA\n", FirstOnly: true}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j000001"
	if err := js.Accepted(id, "", body); err != nil {
		t.Fatal(err)
	}
	ghost := jobs.Match{Seq: "ghost", SeqIndex: 42, Pos: 7}
	blob, _ := json.Marshal(ghost)
	js.Decision(id, jobs.ReasonShortCircuit, blob)
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	js2 := openServeStore(t, dir)
	defer js2.Close()
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 8, Store: js2})
	defer shutdownServer(t, s)
	st := waitTerminal(t, s, id)
	if st.State != StateDone || st.Search == nil {
		t.Fatalf("resumed search: %+v", st)
	}
	if !st.Search.ResumedDecision || len(st.Search.Matches) != 1 || st.Search.Matches[0] != ghost {
		t.Fatalf("decision not honored: %+v", st.Search)
	}
	if st.Search.Units != 0 {
		t.Fatalf("resumed search re-explored %d states", st.Search.Units)
	}
	if mo := s.Metrics().Motif; mo == nil || mo.Search.ResumedDecisions != 1 {
		t.Fatalf("motif block: %+v", mo)
	}
	// The job is terminal, so its decision records are cleared from the
	// live WAL state — a fresh life can never resurrect them.
	if d := js2.Decisions(id); d != nil {
		t.Fatalf("decisions survive terminal job: %v", d)
	}
}

// TestSearchDecisionVisibleWhileRunning checks the harvest window: during
// the settle phase the decision is already durable and surfaced on the
// running job's status, and the final result matches it exactly.
func TestSearchDecisionVisibleWhileRunning(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	defer js.Close()
	s := New(Config{Workers: 2, InnerWorkers: 4, QueueCap: 8, Store: js})
	defer shutdownServer(t, s)

	j, err := s.Submit(JobRequest{Type: JobSearch, Search: &jobs.SearchSpec{
		Pattern: "ACGU", Fasta: ">a\nACGUACGUAA\n>b\nUUACGUUUUU\n",
		FirstOnly: true, SettleMillis: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	var note *DecisionNote
	deadline := time.Now().Add(10 * time.Second)
	for note == nil {
		if time.Now().After(deadline) {
			t.Fatal("decision never surfaced")
		}
		st := j.Status()
		if st.State == StateRunning && st.Decision != nil {
			note = st.Decision
			break
		}
		if st.State == StateDone || st.State == StateError {
			t.Fatalf("job finished before the settle window: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if note.Reason != jobs.ReasonShortCircuit {
		t.Fatalf("decision reason %q", note.Reason)
	}
	// The surfaced decision is already durable in the WAL.
	durable, ok := js.Decisions("j000001")[jobs.ReasonShortCircuit]
	if !ok {
		t.Fatal("surfaced decision not in the WAL")
	}
	var fromNote, fromWAL jobs.Match
	if err := json.Unmarshal(note.Data, &fromNote); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(durable, &fromWAL); err != nil {
		t.Fatal(err)
	}
	if fromNote != fromWAL {
		t.Fatalf("status decision %+v != WAL decision %+v", fromNote, fromWAL)
	}
	// Cancel the settle wait; the committed decision is what matters.
	j.cancel()
	st := waitTerminal(t, s, j.id)
	if st.State != StateError {
		// If the timer won the race the job finished normally; then the
		// result must equal the decision.
		if len(st.Search.Matches) != 1 || st.Search.Matches[0] != fromWAL {
			t.Fatalf("result %+v != decision %+v", st.Search, fromWAL)
		}
	}
}

// TestGridJobResumesFromJournaledSnapshot manufactures the WAL state a
// crash mid-relaxation leaves behind and verifies the restarted server
// finishes the job from the snapshot with the cold run's exact checksum.
func TestGridJobResumesFromJournaledSnapshot(t *testing.T) {
	spec := func() *jobs.GridSpec {
		return &jobs.GridSpec{Rows: 12, Cols: 18, Iterations: 200, CheckpointEvery: 25}
	}
	coldSpec := spec()
	if err := coldSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	cold, err := jobs.RunGrid(context.Background(), coldSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	js := openServeStore(t, dir)
	req := JobRequest{Type: JobGrid, Grid: spec()}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j000001"
	if err := js.Accepted(id, "", body); err != nil {
		t.Fatal(err)
	}
	// Journal the snapshot a partial run would have left (75 of 200 sweeps).
	partial := spec()
	partial.Iterations = 75
	if err := partial.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.RunGrid(context.Background(), partial, &jobs.Env{
		Workers: 2,
		Checkpoint: func(key string, data []byte) {
			js.CheckpointKey(id, key, data)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	js2 := openServeStore(t, dir)
	defer js2.Close()
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 8, Store: js2})
	defer shutdownServer(t, s)
	st := waitTerminal(t, s, id)
	if st.State != StateDone || st.Grid == nil {
		t.Fatalf("resumed grid: %+v", st)
	}
	if st.Grid.ResumedSweeps != 75 {
		t.Fatalf("resumed sweeps = %d, want 75", st.Grid.ResumedSweeps)
	}
	if st.Grid.Checksum != cold.Checksum || st.Grid.Sweeps != cold.Sweeps {
		t.Fatalf("resumed grid differs from cold run: %+v vs %+v", st.Grid, cold)
	}
}

// TestMotifContentKeys checks the memo policy: exhaustive search, grid, and
// sort digest; FirstOnly search does not.
func TestMotifContentKeys(t *testing.T) {
	mk := func(req JobRequest) JobRequest {
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		return req
	}
	exhaustive := mk(JobRequest{Type: JobSearch, Search: &jobs.SearchSpec{Pattern: "ACGU", Seed: 3}})
	if _, ok := ContentKey(&exhaustive); !ok {
		t.Fatal("exhaustive search not cacheable")
	}
	first := mk(JobRequest{Type: JobSearch, Search: &jobs.SearchSpec{Pattern: "ACGU", Seed: 3, FirstOnly: true}})
	if _, ok := ContentKey(&first); ok {
		t.Fatal("FirstOnly search must not be cacheable: its winner is a race outcome")
	}
	grid := mk(JobRequest{Type: JobGrid})
	sortReq := mk(JobRequest{Type: JobSort})
	if _, ok := ContentKey(&grid); !ok {
		t.Fatal("grid not cacheable")
	}
	if _, ok := ContentKey(&sortReq); !ok {
		t.Fatal("sort not cacheable")
	}
	// Timing-only knobs do not change the key.
	a := mk(JobRequest{Type: JobGrid, Grid: &jobs.GridSpec{CheckpointEvery: 10}})
	b := mk(JobRequest{Type: JobGrid})
	ka, _ := ContentKey(&a)
	kb, _ := ContentKey(&b)
	if ka != kb {
		t.Fatal("checkpoint cadence changed the grid content key")
	}
}

// TestMotifJobMemoHit verifies an identical resubmission answers from the
// job-level cache without re-running.
func TestMotifJobMemoHit(t *testing.T) {
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 8, MemoBytes: 1 << 20})
	defer shutdownServer(t, s)
	req := JobRequest{Type: JobSort, Sort: &jobs.SortSpec{N: 30_000, Seed: 11}}
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, s, j1.id)
	if st1.State != StateDone {
		t.Fatalf("first run: %+v", st1)
	}
	j2, err := s.Submit(JobRequest{Type: JobSort, Sort: &jobs.SortSpec{N: 30_000, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, s, j2.id)
	if st2.Sort == nil || st2.Sort.Checksum != st1.Sort.Checksum {
		t.Fatalf("cached result differs: %+v vs %+v", st2.Sort, st1.Sort)
	}
	if got := s.Metrics().MemoJobHits; got != 1 {
		t.Fatalf("memo job hits = %d, want 1", got)
	}
}

// TestSearchDecisionBeforeAcceptedHonoured: motifd journals accepted after
// the push, so a fast search's decision can reach the WAL first. The store
// holds it for the accepted record, and the job honours it — live, in the
// daemon that accepted the job, and after a restart.
func TestSearchDecisionBeforeAcceptedHonoured(t *testing.T) {
	req := JobRequest{Type: JobSearch, Search: &jobs.SearchSpec{
		Pattern: "ACGU", Fasta: ">a\nACGUACGUAA\n", FirstOnly: true}}
	ghost := jobs.Match{Seq: "ghost", SeqIndex: 42, Pos: 7}
	blob, _ := json.Marshal(ghost)
	honoured := func(st JobStatus, phase string) {
		t.Helper()
		if st.State != StateDone || st.Search == nil || !st.Search.ResumedDecision ||
			len(st.Search.Matches) != 1 || st.Search.Matches[0] != ghost || st.Search.Units != 0 {
			t.Fatalf("%s: decision not honoured: %s %+v", phase, st.State, st.Search)
		}
	}

	// Live: the decision for the job's id is in the log before Submit
	// journals accepted; the worker is held until it has.
	dir := t.TempDir()
	js := openServeStore(t, dir)
	s := New(Config{Workers: 1, InnerWorkers: 2, QueueCap: 8, Store: js})
	release := blockWorkers(t, s, 1)
	js.Decision("j000002", jobs.ReasonShortCircuit, blob)
	j, err := s.Submit(req)
	if err != nil || j.id != "j000002" {
		t.Fatalf("submit: %v (id %v)", err, j)
	}
	release()
	honoured(waitTerminal(t, s, j.id), "live")
	shutdownServer(t, s)
	js.Close()

	// Replay: decision first, then accepted, then a crash.
	dir = t.TempDir()
	js = openServeStore(t, dir)
	body, _ := json.Marshal(req)
	js.Decision("j000001", jobs.ReasonShortCircuit, blob)
	if err := js.Accepted("j000001", "", body); err != nil {
		t.Fatal(err)
	}
	js.Close()
	js = openServeStore(t, dir)
	defer js.Close()
	s = New(Config{Workers: 1, InnerWorkers: 2, QueueCap: 8, Store: js})
	defer shutdownServer(t, s)
	honoured(waitTerminal(t, s, "j000001"), "replay")
}
