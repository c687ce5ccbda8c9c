package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

func openClusterStore(t *testing.T, dir string) *store.JobStore {
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

// TestCoordinatorRecoversOrphanedJob manufactures the log a crashed
// coordinator leaves behind — an accepted job with no terminal record — and
// verifies the restarted coordinator re-places it onto a worker under its
// original ID.
func TestCoordinatorRecoversOrphanedJob(t *testing.T) {
	dir := t.TempDir()
	js := openClusterStore(t, dir)
	req := treeReq(16)
	req.ID = "batch-7"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Accepted("c000001", req.ID, body); err != nil {
		t.Fatal(err)
	}
	js.Close()

	_, ws := newRealWorker(t)
	js2 := openClusterStore(t, dir)
	defer js2.Close()
	cfg := fastConfig()
	cfg.Store = js2
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())

	j, ok := c.Job("c000001")
	if !ok {
		t.Fatal("orphaned job not recovered")
	}
	v := waitTerminal(t, j, 30*time.Second)
	if v.State != serve.StateDone || v.Tree == nil {
		t.Fatalf("recovered job ended %s (%s)", v.State, v.Error)
	}
	if v.WorkerID != "w1" {
		t.Errorf("recovered job placed on %q, want w1", v.WorkerID)
	}

	// The client's resubmission of the same batch key answers with the
	// recovered job, not a duplicate execution.
	dup, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dup.id != "c000001" {
		t.Fatalf("resubmission created %s, want c000001", dup.id)
	}
	if got := c.Metrics().Deduped; got != 1 {
		t.Errorf("deduped = %d, want 1", got)
	}
	// Fresh submissions allocate above the recovered ID space.
	fresh, err := c.Submit(treeReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.id == "c000001" {
		t.Fatal("fresh job collided with recovered id")
	}
	waitTerminal(t, fresh, 30*time.Second)
	// Done jobs are journaled: a third open sees no incomplete work.
	if inc := js2.Incomplete(); len(inc) != 0 {
		t.Errorf("jobs still incomplete in the log after completion: %+v", inc)
	}
}

// TestCoordinatorDedupSameSubmission checks the in-flight dedup path: two
// submissions with the same request ID share one job and one pending slot.
func TestCoordinatorDedupSameSubmission(t *testing.T) {
	_, ws := newRealWorker(t)
	dir := t.TempDir()
	js := openClusterStore(t, dir)
	defer js.Close()
	cfg := fastConfig()
	cfg.Store = js
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())

	req := treeReq(16)
	req.ID = "same-key"
	a, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.id != b.id {
		t.Fatalf("duplicate submissions got %s and %s", a.id, b.id)
	}
	waitTerminal(t, a, 30*time.Second)
	if got := c.Metrics().Pending; got != 0 {
		t.Errorf("pending = %d after completion, want 0 (dedup leaked a slot)", got)
	}
}
