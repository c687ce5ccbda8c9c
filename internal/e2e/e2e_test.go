package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestMotifdServesAndDrains: one motifd takes an alignment job to done,
// accounts for it on /metrics, and drains on SIGTERM.
func TestMotifdServesAndDrains(t *testing.T) {
	d := start(t, binary(t, "motifd"), "motifd", "", "-procs", "2", "-queue", "16")
	if code, state, err := health(d); code != http.StatusOK || state != "ok" {
		t.Fatalf("/healthz answered %d %q (err %v), want 200 ok", code, state, err)
	}
	c := motifd(d)
	st := submit(t, c, `{"type":"align","align":{"n":6,"len":40,"seed":3}}`)
	waitDone(t, c, st.ID)
	m := metrics[serve.MetricsSnapshot](t, c)
	if m.Done < 1 || len(m.PerWorker) != 2 {
		t.Fatalf("metrics done=%d per_worker=%d, want >=1 and 2", m.Done, len(m.PerWorker))
	}
	d.drain(t)
}

// TestClusterSurvivesWorkerKill: a coordinator and two single-proc
// workers take a batch; w1 is SIGKILLed while its own queue still holds
// work, and every accepted job completes on the survivor, with the
// retries and the death on the coordinator's /metrics.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	const jobs = 24
	coord := start(t, binary(t, "motifctl"), "motifctl", "", "-heartbeat", "100ms")
	w1 := worker(t, "w1", coord.base, "-procs", "1", "-inner", "2")
	w2 := worker(t, "w2", coord.base, "-procs", "1", "-inner", "2")
	waitLive(t, coord, 2)

	c := motifctl(coord)
	ids := make([]string, jobs)
	for j := range ids {
		ids[j] = submit(t, c, fmt.Sprintf(`{"type":"align","align":{"n":16,"len":300,"seed":%d}}`, j)).ID
	}
	// Kill w1 only while a job waits in its queue, so at least one dies
	// with it and must be re-placed.
	wc := motifd(w1)
	eventually(t, w1, 10*time.Second, "w1 queue_depth >= 1", func() bool {
		return metrics[serve.MetricsSnapshot](t, wc).QueueDepth >= 1
	})
	w1.kill()

	for _, id := range ids {
		waitDone(t, c, id)
	}
	// The expiry sweep may need a beat to count the death.
	eventually(t, coord, 10*time.Second, "done, retries and deaths counted", func() bool {
		m := metrics[cluster.MetricsSnapshot](t, c)
		if m.Failed != 0 {
			t.Fatalf("failed=%d, want 0", m.Failed)
		}
		return m.Done == jobs && m.Retries >= 1 && m.WorkerDeaths >= 1
	})

	// The merged Chrome trace is a file format, not the job API, so it
	// is read off the wire.
	resp, err := hc.Get(coord.base + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("merged trace: %d events, err %v", len(doc.TraceEvents), err)
	}
	coord.drain(t)
	w2.drain(t)
}

// TestCoordinatorCrashRecovery: SIGKILL a journaling coordinator once part
// of a batch is done, restart it on the same store, and every accepted id
// completes (zero lost) while resubmitting each request id answers with
// the original job (zero duplicated).
func TestCoordinatorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ctl := binary(t, "motifctl")
	args := []string{"-heartbeat", "100ms", "-store", dir, "-lease-ttl", "500ms"}
	coord := start(t, ctl, "motifctl", "", args...)
	w1 := worker(t, "w1", coord.base, "-procs", "1", "-inner", "1")
	w2 := worker(t, "w2", coord.base, "-procs", "1", "-inner", "1")
	waitLive(t, coord, 2)

	ids := submitBatch(t, coord, "batch", 16)
	eventually(t, coord, 10*time.Second, "2 jobs done", func() bool {
		return metrics[cluster.MetricsSnapshot](t, motifctl(coord)).Done >= 2
	})
	coord.kill()
	// The dead coordinator's lease stays fresh for up to a TTL.
	eventually(t, nil, 5*time.Second, "stale lease", func() bool {
		_, age, err := store.ReadLease(dir)
		return err == nil && age > 500*time.Millisecond
	})
	coord = start(t, ctl, "motifctl-restarted", coord.addr, args...)
	if m := metrics[cluster.MetricsSnapshot](t, motifctl(coord)); m.Store == nil || m.Store.ReplayedRecords == 0 {
		t.Fatalf("restarted coordinator replayed nothing: %+v", m.Store)
	}
	waitLive(t, coord, 2)
	checkBatch(t, coord, "batch", ids)
	coord.drain(t)
	w1.drain(t)
	w2.drain(t)
}

// submitBatch submits n slow tree reductions with request ids prefix-i.
func submitBatch(t *testing.T, coord *daemon, prefix string, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for j := range ids {
		ids[j] = submit(t, motifctl(coord), batchReq(prefix, j)).ID
	}
	return ids
}

func batchReq(prefix string, j int) string {
	return fmt.Sprintf(`{"type":"tree","id":"%s-%d","tree":{"leaves":64,"node_cost_us":3000,"seed":%d}}`, prefix, j, j)
}

// checkBatch requires every job done under its original id, then
// resubmits every request id and requires the original job back.
func checkBatch(t *testing.T, coord *daemon, prefix string, ids []string) {
	t.Helper()
	c := motifctl(coord)
	for _, id := range ids {
		waitDone(t, c, id)
	}
	for j, want := range ids {
		if got := submit(t, c, batchReq(prefix, j)).ID; got != want {
			t.Fatalf("resubmit %s-%d got %s, want %s (duplicated job)", prefix, j, got, want)
		}
	}
	if m := metrics[cluster.MetricsSnapshot](t, c); m.Failed != 0 || m.Deduped < int64(len(ids)) {
		t.Fatalf("failed=%d deduped=%d, want 0 and >= %d", m.Failed, m.Deduped, len(ids))
	}
}

// TestCheckpointResume: SIGKILL a journaling motifd once a slow reduction
// has checkpointed, restart it, and the job finishes from its checkpoints
// with fewer node evaluations than the 63 of a cold run.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	bin := binary(t, "motifd")
	args := []string{"-procs", "1", "-inner", "1", "-store", dir}
	d := start(t, bin, "motifd", "", args...)
	id := submit(t, motifd(d), `{"type":"tree","id":"resume-1","tree":{"leaves":64,"node_cost_us":20000,"seed":1}}`).ID
	eventually(t, d, 10*time.Second, "5 checkpoints journaled", func() bool {
		m := metrics[serve.MetricsSnapshot](t, motifd(d))
		return m.Store != nil && m.Store.CheckpointWrites >= 5
	})
	d.kill()

	d = start(t, bin, "motifd-restarted", d.addr, args...)
	st := waitDone(t, motifd(d), id)
	if st.Tree.ResumedNodes == 0 || st.Tree.Units >= 63 {
		t.Fatalf("resumed run: resumed_nodes=%d units=%d, want > 0 and < 63", st.Tree.ResumedNodes, st.Tree.Units)
	}
	if m := metrics[serve.MetricsSnapshot](t, motifd(d)); m.Store.CheckpointHits == 0 {
		t.Fatal("store.checkpoint_hits = 0 after a resume")
	}
	d.drain(t)
}

// pipelineReq: 24 sequences reduced in windows of 6 give 4 group records
// plus a summary; the report stage sleeps 60ms per record, holding the
// stream open.
const pipelineReq = `{"type":"pipeline","id":"pipe-1","pipeline":{"n":24,"len":40,"seed":7,"stages":[{"name":"filter","min_len":4},{"name":"align","band":8},{"name":"reduce","group":6,"band":8},{"name":"report","delay_us":60000}]}}`

// TestPipelineResumesAfterKill: SIGKILL motifd as the first NDJSON record
// reaches the client; after a restart on the same store the job resumes
// from a completed stage and replays a stream byte-identical to an
// uninterrupted run.
func TestPipelineResumesAfterKill(t *testing.T) {
	bin := binary(t, "motifd")
	ctx := context.Background()
	golden := start(t, bin, "motifd-golden", "")
	c := motifd(golden)
	gid := submit(t, c, pipelineReq).ID
	want := readStream(t, c, gid)
	if n := bytes.Count(want, []byte("\n")); n != 5 {
		t.Fatalf("golden stream has %d lines, want 5:\n%s", n, want)
	}
	waitDone(t, c, gid)
	golden.drain(t)

	args := []string{"-store", t.TempDir()}
	d := start(t, bin, "motifd", "", args...)
	c = motifd(d)
	id := submit(t, c, pipelineReq).ID
	body, err := c.Stream(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(body)
	partial, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no record before the kill: %v", err)
	}
	d.kill()
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			break // the torn tail of the stream, if any, is dropped
		}
		partial = append(partial, line...)
	}
	body.Close()
	if n := bytes.Count(partial, []byte("\n")); n >= 5 || !bytes.HasPrefix(want, partial) {
		t.Fatalf("pre-crash stream (%d lines) is complete or diverges from golden:\n%s", n, partial)
	}

	d = start(t, bin, "motifd-restarted", d.addr, args...)
	c = motifd(d)
	if st := waitDone(t, c, id); st.Pipeline.ResumedStages == 0 {
		t.Fatal("resumed_stages = 0: the pipeline re-ran from scratch")
	}
	if got := readStream(t, c, id); !bytes.Equal(got, want) {
		t.Fatalf("resumed stream differs from golden:\n got %s\nwant %s", got, want)
	}
	if m := metrics[serve.MetricsSnapshot](t, c); m.Pipeline == nil || m.Pipeline.Jobs < 1 || m.Store.CheckpointHits == 0 {
		t.Fatalf("metrics: pipeline %+v, checkpoint_hits %d", m.Pipeline, m.Store.CheckpointHits)
	}
	d.drain(t)
}

// readStream reads a pipeline job's whole NDJSON stream.
func readStream(t *testing.T, c *serve.Client[serve.JobStatus], id string) []byte {
	t.Helper()
	body, err := c.Stream(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	b, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stampHeaders is a gateway in front of the client: it stamps QoS
// identity headers onto every request.
type stampHeaders map[string]string

func (h stampHeaders) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	for k, v := range h {
		r.Header.Set(k, v)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestQoSHeaderIdentity: tenant identity carried only in headers reaches
// motifd -qos's job view and its /metrics qos block.
func TestQoSHeaderIdentity(t *testing.T) {
	d := start(t, binary(t, "motifd"), "motifd", "", "-procs", "2", "-queue", "16", "-qos", "-weights", "gold=4")
	c := serve.NewClient[serve.JobStatus](d.base, &http.Client{Timeout: hc.Timeout,
		Transport: stampHeaders{"X-Motif-Tenant": "gold", "X-Motif-Class": "high"}})
	st := waitDone(t, c, submit(t, c, `{"type":"align","align":{"n":6,"len":40,"seed":3}}`).ID)
	if st.Tenant != "gold" || st.Class != "high" {
		t.Fatalf("job view tenant %q class %q, want gold/high", st.Tenant, st.Class)
	}
	q := metrics[serve.MetricsSnapshot](t, c).QoS
	if q == nil || !q.Fair {
		t.Fatalf("qos block %+v, want fair", q)
	}
	var gold bool
	for _, ts := range q.PerTenant {
		gold = gold || (ts.Tenant == "gold" && ts.Admitted >= 1 && ts.Weight == 4)
	}
	if !gold {
		t.Fatalf("qos per_tenant %+v lacks gold admitted at weight 4", q.PerTenant)
	}
	d.drain(t)
}

// TestStandbyTakesOver: an active motifctl and a standby share one WAL;
// the active is SIGKILLed mid-batch, the standby takes over the lease and
// the WAL, the workers fail over to it on their own, and no job is lost
// or duplicated.
func TestStandbyTakesOver(t *testing.T) {
	dir := t.TempDir()
	ctl := binary(t, "motifctl")
	args := []string{"-heartbeat", "100ms", "-store", dir, "-lease-ttl", "1s"}
	active := start(t, ctl, "active", "", args...)
	standby := start(t, ctl, "standby", "", append(args, "-standby", "-peer", active.base)...)
	if code, state, err := health(standby); code != http.StatusOK || state != "standby" {
		t.Fatalf("standby /healthz answered %d %q (err %v) before takeover, want 200 standby", code, state, err)
	}
	sc := motifctl(standby)
	var ae *serve.APIError
	if err := sc.Metrics(context.Background(), &struct{}{}); !errors.As(err, &ae) ||
		ae.Kind != serve.ErrUnavailable || !strings.HasPrefix(ae.Msg, "standby") {
		t.Fatalf("standby before takeover answered %v, want 503 standby", err)
	}
	urls := active.base + "," + standby.base
	w1 := worker(t, "w1", urls, "-procs", "1", "-inner", "1")
	w2 := worker(t, "w2", urls, "-procs", "1", "-inner", "1")
	waitLive(t, active, 2)

	ids := submitBatch(t, active, "ha", 16)
	eventually(t, active, 10*time.Second, "2 jobs done", func() bool {
		return metrics[cluster.MetricsSnapshot](t, motifctl(active)).Done >= 2
	})
	active.kill()

	eventually(t, standby, 15*time.Second, "standby /healthz ok", func() bool {
		code, state, err := health(standby)
		return err == nil && code == http.StatusOK && state == "ok"
	})
	if !strings.Contains(standby.logText(t), "took over") {
		t.Fatalf("no takeover line in the standby log:\n%s", standby.logText(t))
	}
	if m := metrics[cluster.MetricsSnapshot](t, sc); m.Store == nil || m.Store.ReplayedRecords == 0 {
		t.Fatalf("standby replayed nothing at takeover: %+v", m.Store)
	}
	waitLive(t, standby, 2)
	checkBatch(t, standby, "ha", ids)
	standby.drain(t)
	w1.drain(t)
	w2.drain(t)
}

// TestGridAndSortJobs: a grid job converges under its tolerance and a sort
// job comes back sorted.
func TestGridAndSortJobs(t *testing.T) {
	d := start(t, binary(t, "motifd"), "motifd", "", "-procs", "2", "-inner", "2", "-store", t.TempDir())
	c := motifd(d)
	g := waitDone(t, c, submit(t, c, `{"type":"grid","grid":{"rows":32,"cols":32,"iterations":20000,"tolerance":1e-4}}`).ID)
	if !g.Grid.Converged || g.Grid.Checksum == "" {
		t.Fatalf("grid: converged=%v checksum=%q", g.Grid.Converged, g.Grid.Checksum)
	}
	s := waitDone(t, c, submit(t, c, `{"type":"sort","sort":{"n":65536,"seed":7}}`).ID)
	if !s.Sort.Sorted || s.Sort.Checksum == "" {
		t.Fatalf("sort: sorted=%v checksum=%q", s.Sort.Sorted, s.Sort.Checksum)
	}
	d.drain(t)
}

// searchReq is a FirstOnly search whose 9s settle window holds the job
// open after its shortcircuit decision is journaled: a kill inside that
// window lands between commitment and completion.
const searchReq = `{"type":"search","search":{"pattern":"ACGUACGU","seqs":8,"seq_len":4096,"seed":3,"max_mismatches":2,"first_only":true,"node_cost_us":200,"settle_ms":9000}}`

type winner struct {
	SeqIndex int `json:"seq_index"`
	Pos      int `json:"pos"`
}

// decisionWinner decodes a shortcircuit decision's winning match.
func decisionWinner(t *testing.T, note *serve.DecisionNote) winner {
	t.Helper()
	var w winner
	if note.Reason != "shortcircuit" || json.Unmarshal(note.Data, &w) != nil {
		t.Fatalf("decision %s %s, want a shortcircuit winner", note.Reason, note.Data)
	}
	return w
}

// checkResumedSearch requires a search completed from its journaled
// decision with the same winner.
func checkResumedSearch(t *testing.T, r serve.Results, want winner) {
	t.Helper()
	s := r.Search
	if len(s.Matches) == 0 || (winner{s.Matches[0].SeqIndex, s.Matches[0].Pos}) != want || !s.ResumedDecision {
		t.Fatalf("resumed search %+v, want winner %+v with resumed_decision", s, want)
	}
}

// TestSearchDecisionSurvivesKill: motifd is SIGKILLed inside a FirstOnly
// search's settle window, after its decision is visible; the restarted
// daemon honours the journaled decision with zero re-explored units.
func TestSearchDecisionSurvivesKill(t *testing.T) {
	bin := binary(t, "motifd")
	args := []string{"-procs", "2", "-inner", "2", "-store", t.TempDir()}
	d := start(t, bin, "motifd", "", args...)
	c := motifd(d)
	id := submit(t, c, searchReq).ID
	var st serve.JobStatus
	eventually(t, d, 30*time.Second, "a visible decision", func() bool {
		var err error
		if st, err = c.Status(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		return st.Decision != nil
	})
	want := decisionWinner(t, st.Decision)
	if st.State != serve.StateRunning {
		t.Fatalf("search already %s before the kill (settle window too short)", st.State)
	}
	d.kill()

	d = start(t, bin, "motifd-restarted", d.addr, args...)
	c = motifd(d)
	st = waitDone(t, c, id)
	checkResumedSearch(t, st.Results, want)
	if st.Search.Units != 0 {
		t.Fatalf("resumed search re-explored %d units, want 0", st.Search.Units)
	}
	if m := metrics[serve.MetricsSnapshot](t, c); m.Motif == nil || m.Motif.Search.ResumedDecisions < 1 {
		t.Fatalf("motif block %+v, want resumed_decisions >= 1", m.Motif)
	}
	d.drain(t)
}

// TestClusterDecisionHarvest: the coordinator harvests a FirstOnly
// search's decision off a status poll; SIGKILLing the worker holding the
// job then makes the retry a no-op — done from the harvested decision,
// same winner, no re-placement.
func TestClusterDecisionHarvest(t *testing.T) {
	coord := start(t, binary(t, "motifctl"), "motifctl", "", "-heartbeat", "100ms",
		"-store", t.TempDir(), "-lease-ttl", "500ms")
	workers := map[string]*daemon{
		"w1": worker(t, "w1", coord.base, "-procs", "1", "-inner", "1"),
		"w2": worker(t, "w2", coord.base, "-procs", "1", "-inner", "1"),
	}
	waitLive(t, coord, 2)
	c := motifctl(coord)
	id := submit(t, c, searchReq).ID
	eventually(t, coord, 30*time.Second, "a harvested decision", func() bool {
		return metrics[cluster.MetricsSnapshot](t, c).DecisionsHarvested >= 1
	})
	v, err := c.Status(context.Background(), id)
	if err != nil || v.Decision == nil || workers[v.WorkerID] == nil {
		t.Fatalf("job view %+v (err %v), want a decision on w1 or w2", v, err)
	}
	want := decisionWinner(t, v.Decision)
	workers[v.WorkerID].kill()

	checkResumedSearch(t, waitDone(t, c, id).Results, want)
	if m := metrics[cluster.MetricsSnapshot](t, c); m.DecisionCompletions < 1 || m.Retries != 0 {
		t.Fatalf("decision_completions=%d retries=%d, want >= 1 and 0", m.DecisionCompletions, m.Retries)
	}
	coord.drain(t)
}
