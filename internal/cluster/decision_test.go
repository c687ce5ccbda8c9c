package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
)

// decisionFasta has exactly one ACGU window, so a FirstOnly search commits
// to a known winner before its settle window opens.
const decisionFasta = ">a\nACGUUUUUUU\n"

func searchReq(settleMillis int64) serve.JobRequest {
	return serve.JobRequest{
		Type: serve.JobSearch,
		Search: &jobs.SearchSpec{
			Pattern:      "ACGU",
			Fasta:        decisionFasta,
			FirstOnly:    true,
			SettleMillis: settleMillis,
		},
	}
}

// TestClusterHarvestsDecisionAndSurvivesWorkerDeath drives the headline
// cluster contract: a FirstOnly search short-circuits on a worker, the
// coordinator harvests the decision record off a status poll while the job
// is still inside its settle window, the worker is killed, and the retry
// is a no-op — the job completes from the harvested decision without ever
// re-placing, and no other worker re-explores the search space.
func TestClusterHarvestsDecisionAndSurvivesWorkerDeath(t *testing.T) {
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

	// The settle window holds the worker between journaling the decision
	// and reporting done, guaranteeing the poll loop observes the note
	// mid-flight.
	j, err := c.Submit(searchReq(2000))
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for c.Metrics().DecisionsHarvested == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never harvested the decision record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v := j.View(); v.Decision == nil || v.Decision.Reason != jobs.ReasonShortCircuit {
		t.Fatalf("harvested job view carries no shortcircuit decision: %+v", v.Decision)
	}
	// The harvest is durable coordinator-side before the worker dies.
	if _, ok := js.Decisions(j.id)[jobs.ReasonShortCircuit]; !ok {
		t.Fatal("harvested decision not journaled in the coordinator store")
	}

	// Kill the worker mid-settle: polls fail, the placement is declared
	// lost, and the retry must complete from the decision instead of
	// re-placing.
	ws.Close()

	v := waitTerminal(t, j, 30*time.Second)
	if v.State != serve.StateDone {
		t.Fatalf("job ended %s (%s), want done from decision", v.State, v.Error)
	}
	if v.Search == nil || !v.Search.Terminated || v.Search.Reason != jobs.ReasonShortCircuit {
		t.Fatalf("search result does not reflect the decision: %+v", v.Search)
	}
	if !v.Search.ResumedDecision {
		t.Error("result not marked as resumed from the decision record")
	}
	if len(v.Search.Matches) != 1 || v.Search.Matches[0].Pos != 0 || v.Search.Matches[0].SeqIndex != 0 {
		t.Fatalf("decision completion changed the winner: %+v", v.Search.Matches)
	}
	if v.Search.Units != 0 {
		t.Errorf("decision completion re-explored %d units, want 0", v.Search.Units)
	}
	m := c.Metrics()
	if m.DecisionCompletions != 1 {
		t.Errorf("decision completions = %d, want 1", m.DecisionCompletions)
	}
	if m.Retries != 0 {
		t.Errorf("retries = %d, want 0 (terminated-search retry must be a no-op)", m.Retries)
	}
	// Terminal jobs carry no live decision records in the WAL.
	if decs := js.Decisions(j.id); decs != nil {
		t.Errorf("decision records survived completion: %v", decs)
	}
}

// TestClusterRecoveryCompletesFromJournaledDecision restarts a coordinator
// over a WAL holding an accepted search plus its harvested shortcircuit
// decision — the log a crash (or a standby takeover, which replays the
// same WAL) leaves behind. The orphan must complete from the record with
// zero placements, even with no worker registered at all.
func TestClusterRecoveryCompletesFromJournaledDecision(t *testing.T) {
	dir := t.TempDir()
	js := openClusterStore(t, dir)
	req := searchReq(0)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Accepted("c000001", "", body); err != nil {
		t.Fatal(err)
	}
	ghost, _ := json.Marshal(jobs.Match{Seq: "ACGU", SeqIndex: 0, Pos: 0})
	js.Decision("c000001", jobs.ReasonShortCircuit, ghost)
	js.Close()

	js2 := openClusterStore(t, dir)
	defer js2.Close()
	cfg := fastConfig()
	cfg.Store = js2
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	// Deliberately no workers: a decision completion needs none.

	j, ok := c.Job("c000001")
	if !ok {
		t.Fatal("orphaned job not recovered")
	}
	v := waitTerminal(t, j, 10*time.Second)
	if v.State != serve.StateDone || v.Search == nil {
		t.Fatalf("recovered job ended %s (%s)", v.State, v.Error)
	}
	if !v.Search.ResumedDecision || v.Search.Units != 0 {
		t.Fatalf("recovered job re-explored instead of honoring the decision: %+v", v.Search)
	}
	if v.Attempts != 0 {
		t.Errorf("attempts = %d, want 0 (no placement should occur)", v.Attempts)
	}
	if got := c.Metrics().DecisionCompletions; got != 1 {
		t.Errorf("decision completions = %d, want 1", got)
	}
	// The completion is journaled terminal: a third open replays no
	// incomplete work and no decision records.
	if inc := js2.Incomplete(); len(inc) != 0 {
		t.Errorf("jobs still incomplete after decision completion: %+v", inc)
	}
	if decs := js2.Decisions("c000001"); decs != nil {
		t.Errorf("decision records survived completion: %v", decs)
	}
}
