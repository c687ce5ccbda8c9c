package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// TestJobViewWireFormat pins JobView's JSON, result block embedded, to the
// bytes its own per-kind fields produced. The one intended difference is
// the pipeline result, which the old field list left out.
func TestJobViewWireFormat(t *testing.T) {
	v := JobView{ID: "c000001", Type: serve.JobSearch, State: serve.StateDone, Tenant: "t", Class: "high",
		WorkerID: "w1", Attempts: 2, QueueMillis: 1.5, RunMillis: 2.25,
		Results: serve.Results{
			Align:  &bio.AlignJobResult{Names: []string{"a", "b"}, Rows: []string{"AC-U", "ACGU"}, Columns: 4, SPIdentity: 0.75, Consensus: "ACGU", Units: 1},
			Tree:   &serve.TreeResult{Value: 24, Leaves: 4, Units: 3},
			Strand: &serve.StrandResult{Reductions: 9, Makespan: 5, Messages: 2, Output: "24\n"},
			Pipeline: &pipeline.Result{Records: 1, Stages: []pipeline.StageResult{{Name: "source", Out: 1}},
				Output: []pipeline.Record{{Kind: "seq", Name: "s1", Seq: "ACGU", Len: 4}}},
			Search: &jobs.SearchResult{Matches: []jobs.Match{{Seq: "s1", Pos: 2}}, Total: 1, Seqs: 1, Bases: 8, Units: 7},
			Grid:   &jobs.GridResult{Rows: 8, Cols: 8, Sweeps: 10, Delta: 0.5, Center: 1.25, Checksum: "ab12"},
			Sort:   &jobs.SortResult{N: 16, Checksum: "cd34", Sorted: true, Units: 64},
		},
		Decision: &serve.DecisionNote{Reason: "shortcircuit", Data: json.RawMessage(`{"seq":"s1"}`)}}
	const before = `{"id":"c000001","type":"search","state":"done","tenant":"t","class":"high","worker_id":"w1","attempts":2,"queue_ms":1.5,"run_ms":2.25,"align":{"names":["a","b"],"rows":["AC-U","ACGU"],"columns":4,"sp_identity":0.75,"consensus":"ACGU","units":1,"cross_messages":0},"tree":{"value":24,"leaves":4,"units":3,"cross_messages":0,"imbalance":0},"strand":{"reductions":9,"makespan":5,"messages":2,"output":"24\n"},"search":{"matches":[{"seq":"s1","seq_index":0,"pos":2,"mismatches":0}],"total":1,"seqs":1,"bases":8,"units":7},"grid":{"rows":8,"cols":8,"sweeps":10,"delta":0.5,"converged":false,"center":1.25,"checksum":"ab12","units":0},"sort":{"n":16,"checksum":"cd34","sorted":true,"units":64},"decision":{"reason":"shortcircuit","data":{"seq":"s1"}}}`
	const pipelineJSON = `"pipeline":{"records":1,"stages":[{"name":"source","in":0,"out":1}],"output":[{"kind":"seq","index":0,"name":"s1","seq":"ACGU","len":4}]}`
	want := strings.Replace(before, `,"search":`, ","+pipelineJSON+`,"search":`, 1)
	if got, err := json.Marshal(v); err != nil || string(got) != want {
		t.Fatalf("JobView JSON changed (err %v):\n got %s\nwant %s", err, got, want)
	}
}

// TestClusterPipelineKeepsResult ships a pipeline job through a
// coordinator with two workers and checks that GET /v1/jobs/{id} carries
// the same pipeline block motifd returns for the spec, both live and after
// the coordinator restarts on its WAL.
func TestClusterPipelineKeepsResult(t *testing.T) {
	req := serve.JobRequest{Type: serve.JobPipeline, Pipeline: &pipeline.Spec{
		N: 10, Len: 40, Seed: 7,
		Stages: []pipeline.StageSpec{{Name: "filter", MinLen: 4}, {Name: "align", Band: 8}, {Name: "report"}},
	}}
	ref, _ := newRealWorker(t)
	refJob, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitServeTerminal(t, refJob)
	if st.State != serve.StateDone || st.Pipeline == nil {
		t.Fatalf("motifd pipeline job ended %s (%s) without a result", st.State, st.Error)
	}
	want, _ := json.Marshal(st.Pipeline)

	_, wsA := newRealWorker(t)
	_, wsB := newRealWorker(t)
	dir := t.TempDir()
	cfg := fastConfig()
	cfg.Store = openClusterStore(t, dir)
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.reg.register(WorkerInfo{ID: "w1", Addr: wsA.URL, Workers: 2}, time.Now())
	c.reg.register(WorkerInfo{ID: "w2", Addr: wsB.URL, Workers: 2}, time.Now())
	front := httptest.NewServer(c.Handler())
	body, _ := json.Marshal(req)
	accepted, err := frontClient(front).Submit(context.Background(), body)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// pipelineOf polls a front end until the job is terminal and returns
	// its pipeline block.
	pipelineOf := func(front *httptest.Server) []byte {
		t.Helper()
		v := pollTerminal(t, frontClient(front), accepted.ID)
		if v.State != serve.StateDone {
			t.Fatalf("job %s ended %s (%s)", v.ID, v.State, v.Error)
		}
		got, _ := json.Marshal(v.Pipeline)
		return got
	}
	if got := pipelineOf(front); !bytes.Equal(got, want) {
		t.Fatalf("pipeline block through motifctl:\n got %s\nwant %s", got, want)
	}

	front.Close()
	shutdownCoordinator(t, c)
	cfg.Store.Close()
	cfg.Store = openClusterStore(t, dir)
	defer cfg.Store.Close()
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c2)
	front2 := httptest.NewServer(c2.Handler())
	defer front2.Close()
	if got := pipelineOf(front2); !bytes.Equal(got, want) {
		t.Fatalf("pipeline block after coordinator restart:\n got %s\nwant %s", got, want)
	}
}

// TestClusterPipelineStreams opens GET /v1/jobs/{id}/stream on a pipeline
// job through motifctl before any worker exists to run it: the stream
// waits for the job, then answers with its durable output, byte-equal to
// motifd's live stream of the same spec, and ends.
func TestClusterPipelineStreams(t *testing.T) {
	req := serve.JobRequest{Type: serve.JobPipeline, Pipeline: &pipeline.Spec{
		N: 10, Len: 40, Seed: 7,
		Stages: []pipeline.StageSpec{{Name: "filter", MinLen: 4}, {Name: "align", Band: 8}, {Name: "report"}},
	}}
	body, _ := json.Marshal(req)
	readStream := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		rc, err := serve.NewClient[serve.JobStatus](ts.URL, ts.Client()).Stream(context.Background(), id)
		if err != nil {
			t.Errorf("stream %s: %v", id, err)
			return nil
		}
		defer rc.Close()
		got, err := io.ReadAll(rc)
		if err != nil {
			t.Errorf("stream %s did not end cleanly: %v", id, err)
		}
		return got
	}

	_, ref := newRealWorker(t)
	refJob, err := serve.NewClient[serve.JobStatus](ref.URL, ref.Client()).Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	want := readStream(ref, refJob.ID)
	if len(want) == 0 {
		t.Fatal("motifd streamed nothing")
	}

	c, err := NewCoordinator(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	accepted, err := frontClient(front).Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan []byte, 1)
	go func() { streamed <- readStream(front, accepted.ID) }()
	select {
	case got := <-streamed:
		t.Fatalf("stream answered %q before the job ran", got)
	case <-time.After(50 * time.Millisecond):
	}
	_, ws := newRealWorker(t)
	c.reg.register(WorkerInfo{ID: "w1", Addr: ws.URL, Workers: 2}, time.Now())
	if got := <-streamed; !bytes.Equal(got, want) {
		t.Fatalf("stream through motifctl:\n got %s\nwant %s", got, want)
	}
}
