package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/skel"
	"repro/internal/store"
	"repro/internal/workload"
)

func openServeStore(t *testing.T, dir string) *store.JobStore {
	t.Helper()
	js, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	// Appends other than accepted report failures only through the
	// store's errors counter, so every test store must end with none.
	t.Cleanup(func() {
		if n := js.Metrics().Errors; n != 0 {
			t.Errorf("store counted %d append/fsync errors", n)
		}
	})
	return js
}

// TestStoreDedupAndRestartHistory drives the idempotency key through a full
// restart: the same client request ID maps to the same job before the
// restart (without re-running it) and still answers from the journaled
// result after.
func TestStoreDedupAndRestartHistory(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	js := openServeStore(t, dir)
	s := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 8, Store: js})

	req := JobRequest{Type: JobTree, ID: "client-req-1", Tree: &TreeSpec{Leaves: 32, Seed: 5}}
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j1.id != j2.id {
		t.Fatalf("duplicate submission got a fresh job: %s vs %s", j1.id, j2.id)
	}
	if got := s.Metrics().Deduped; got != 1 {
		t.Errorf("deduped = %d, want 1", got)
	}
	st := waitTerminal(t, s, j1.id)
	if st.State != StateDone || st.Tree == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	want := st.Tree.Value
	shutdownServer(t, s)
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same directory: the finished job is pollable and
	// the idempotency key still answers without re-execution.
	js2 := openServeStore(t, dir)
	s2 := New(Config{Workers: 2, InnerWorkers: 2, QueueCap: 8, Store: js2})
	r, ok := s2.Job(j1.id)
	if !ok {
		t.Fatalf("job %s not recovered", j1.id)
	}
	rst := r.Status()
	if rst.State != StateDone || rst.Tree == nil || rst.Tree.Value != want {
		t.Fatalf("recovered status wrong: %+v", rst)
	}
	j3, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j3.id != j1.id {
		t.Fatalf("post-restart duplicate got %s, want %s", j3.id, j1.id)
	}
	// Fresh work continues above the recovered ID space.
	j4, err := s2.Submit(JobRequest{Type: JobTree, ID: "client-req-2", Tree: &TreeSpec{Leaves: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if j4.id == j1.id {
		t.Fatal("new request collided with a recovered job id")
	}
	waitTerminal(t, s2, j4.id)
	shutdownServer(t, s2)
	if err := js2.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}

// TestStoreResumesIncompleteTreeJob manufactures the on-disk state a crash
// mid-reduction leaves behind — an accepted job plus checkpoints for part
// of its tree — and verifies the restarted server finishes the job from the
// log: right answer, fewer node evaluations than a cold run, and the
// checkpoint hit-rate surfaced in metrics.
func TestStoreResumesIncompleteTreeJob(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	req := JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 64, Seed: 9}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j000001"
	if err := js.Accepted(id, "", body); err != nil {
		t.Fatal(err)
	}
	// Journal checkpoints by reducing the identical tree (same spec, same
	// seed) out of band, withholding the root so the job stays incomplete.
	tree := workload.SkelTree(workload.IntTree(64, workload.ShapeRandom, 9))
	want, _, err := skel.TreeReduce(context.Background(), tree, intEval, skel.ReduceOptions{
		Workers: 2,
		Checkpoint: func(node int, v any) {
			if node == 0 {
				return
			}
			if data, err := json.Marshal(v.(int64)); err == nil {
				js.Checkpoint(id, node, data)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	js2 := openServeStore(t, dir)
	s := New(Config{Workers: 1, InnerWorkers: 2, QueueCap: 8, Store: js2})
	st := waitTerminal(t, s, id)
	if st.State != StateDone || st.Tree == nil {
		t.Fatalf("recovered job did not finish: %+v", st)
	}
	if st.Tree.Value != want {
		t.Errorf("resumed value = %d, want %d", st.Tree.Value, want)
	}
	cold := int64(tree.Nodes() - tree.Leaves())
	if st.Tree.ResumedNodes == 0 {
		t.Error("resumed_nodes = 0: the reduction ignored its checkpoints")
	}
	if st.Tree.Units >= cold {
		t.Errorf("resumed run evaluated %d nodes, want fewer than cold %d", st.Tree.Units, cold)
	}
	m := s.Metrics()
	if m.Store == nil || m.Store.CheckpointHits == 0 {
		t.Errorf("store metrics missing checkpoint hits: %+v", m.Store)
	}
	shutdownServer(t, s)
	if err := js2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadJobCheckpointsNotInherited: motifd journals accepted after the
// enqueue, so a crash can leave checkpoints for an id no client was ever
// given. The restarted server must not hand that id to a new job, which
// would resume from the dead job's partials and answer wrongly.
func TestDeadJobCheckpointsNotInherited(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	const dead = "j000001"
	for node := 1; node < 200; node++ {
		js.Checkpoint(dead, node, []byte(`1000000`))
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	js2 := openServeStore(t, dir)
	s := New(Config{Workers: 1, InnerWorkers: 2, QueueCap: 8, Store: js2})
	if d, ok := s.Job(dead); !ok || d.Status().State != StateError {
		t.Fatalf("dead job %s not replayed as failed", dead)
	}
	j, err := s.Submit(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 64, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if j.id == dead {
		t.Fatalf("new job reused the dead job's id %s", dead)
	}
	st := waitTerminal(t, s, j.id)
	tree := workload.SkelTree(workload.IntTree(64, workload.ShapeRandom, 9))
	want, _, err := skel.TreeReduce(context.Background(), tree, intEval, skel.ReduceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Tree == nil || st.Tree.Value != want || st.Tree.ResumedNodes != 0 {
		t.Fatalf("new job = %+v, want value %d from a cold run", st, want)
	}
	shutdownServer(t, s)
	if err := js2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFailedJobRecovered checks the failure side of recovery: a
// journaled failure replays as an error status, not a rerun.
func TestStoreFailedJobRecovered(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	body, _ := json.Marshal(JobRequest{Type: JobTree, Tree: &TreeSpec{Leaves: 8}})
	if err := js.Accepted("j000001", "key-1", body); err != nil {
		t.Fatal(err)
	}
	js.Finish("j000001", nil, "deadline exceeded while queued")()
	js.Close()

	js2 := openServeStore(t, dir)
	s := New(Config{Workers: 1, QueueCap: 4, Store: js2})
	j, ok := s.Job("j000001")
	if !ok {
		t.Fatal("failed job not recovered")
	}
	st := j.Status()
	if st.State != StateError || st.Error != "deadline exceeded while queued" {
		t.Fatalf("recovered failure wrong: %+v", st)
	}
	// The idempotency key answers with the failed job rather than rerunning.
	dup, err := s.Submit(JobRequest{Type: JobTree, ID: "key-1", Tree: &TreeSpec{Leaves: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if dup.id != "j000001" {
		t.Fatalf("dedup after failure got %s, want j000001", dup.id)
	}
	shutdownServer(t, s)
	js2.Close()
}
