package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/pipeline"
)

// pipelineSpec is the canonical 4-stage genomics chain the serve tests run:
// filter → pairwise align → guide-tree reduce → report, over a synthetic
// family of 10. The reduce windows by 5, so the report stage emits 2 group
// records plus the trailing summary — 3 NDJSON lines. reportDelayUS slows
// the report stage per record, holding the stream observably open.
func pipelineSpec(reportDelayUS int64) *pipeline.Spec {
	return &pipeline.Spec{
		N: 10, Len: 40, Seed: 7,
		Stages: []pipeline.StageSpec{
			{Name: "filter", MinLen: 4},
			{Name: "align", Band: 8},
			{Name: "reduce", Group: 5, Band: 8},
			{Name: "report", DelayMicros: reportDelayUS},
		},
	}
}

// streamBytes reads a job's full NDJSON stream through the HTTP handler.
func streamBytes(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/stream", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	return rec.Body.Bytes()
}

// ndjson renders records the way the stream does, for byte-level compares.
func ndjson(t *testing.T, recs []pipeline.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		blob, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestPipelineStreamsOverHTTPBeforeCompletion is the tentpole's end-to-end
// assertion: a client following GET /v1/jobs/{id}/stream sees the first
// NDJSON record while the job's final stage is still running.
func TestPipelineStreamsOverHTTPBeforeCompletion(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 50ms per report record: first line ~50ms in, stream complete ~150ms.
	c := NewClient[JobStatus](ts.URL, ts.Client())
	st, err := c.Submit(context.Background(), mustJSON(t, JobRequest{Type: JobPipeline, Pipeline: pipelineSpec(50_000)}))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stream, err := c.Stream(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	sc := bufio.NewScanner(stream)
	if !sc.Scan() {
		t.Fatalf("stream ended before first record: %v", sc.Err())
	}
	var first pipeline.Record
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line not a record: %v", err)
	}
	if first.Kind != "group" {
		t.Fatalf("first record kind %q, want group", first.Kind)
	}
	// Two more delayed records are pending, so the job must still be live.
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s vanished", st.ID)
	}
	if state := j.Status().State; state != StateRunning {
		t.Fatalf("job state %q after first streamed record, want running", state)
	}

	lines := 1
	var last pipeline.Record
	last = first
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d not a record: %v", lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 3 {
		t.Fatalf("streamed %d lines, want 3", lines)
	}
	if last.Kind != "summary" || last.Groups != 2 {
		t.Fatalf("trailing record = %+v, want summary of 2 groups", last)
	}

	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %q: %s", final.State, final.Error)
	}
	if final.Pipeline == nil || final.Pipeline.Records != 3 {
		t.Fatalf("final status pipeline block = %+v, want 3 records", final.Pipeline)
	}
	// The terminal stream replays the identical bytes.
	if got := streamBytes(t, s, st.ID); !bytes.Equal(got, ndjson(t, final.Pipeline.Output)) {
		t.Fatalf("terminal stream replay differs from job output")
	}
}

// TestMetricsPipelineBlockShape asserts the /metrics document gains a
// `pipeline` block with the per-stage fields once a pipeline job has run —
// and not before.
func TestMetricsPipelineBlockShape(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getMetrics := func() map[string]any {
		var doc map[string]any
		if err := NewClient[JobStatus](ts.URL, ts.Client()).Metrics(context.Background(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if _, ok := getMetrics()["pipeline"]; ok {
		t.Fatalf("metrics carry a pipeline block before any pipeline job ran")
	}

	j, err := s.Submit(JobRequest{Type: JobPipeline, Pipeline: pipelineSpec(0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, j.id); st.State != StateDone {
		t.Fatalf("job finished %q: %s", st.State, st.Error)
	}

	pb, ok := getMetrics()["pipeline"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing pipeline block after a pipeline job")
	}
	for _, k := range []string{"jobs", "records", "resumed_stages", "stages"} {
		if _, ok := pb[k]; !ok {
			t.Fatalf("pipeline block missing %q: %v", k, pb)
		}
	}
	if jobs := pb["jobs"].(float64); jobs < 1 {
		t.Fatalf("pipeline jobs = %v, want >= 1", jobs)
	}
	stages, ok := pb["stages"].([]any)
	if !ok || len(stages) != 5 {
		t.Fatalf("pipeline stages = %v, want 5 entries", pb["stages"])
	}
	wantOrder := []string{"align", "filter", "reduce", "report", "source"}
	for i, raw := range stages {
		ss, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("stage %d not an object: %v", i, raw)
		}
		if name := ss["name"]; name != wantOrder[i] {
			t.Fatalf("stage %d name %v, want %s (sorted)", i, name, wantOrder[i])
		}
		for _, k := range []string{"in", "out", "dropped", "queue_depth", "busy_ms", "p50_ms", "p95_ms", "throughput_rps"} {
			if _, ok := ss[k]; !ok {
				t.Fatalf("stage %s missing %q: %v", ss["name"], k, ss)
			}
		}
		if depth := ss["queue_depth"].(float64); depth != 0 {
			t.Fatalf("stage %s queue_depth %v after completion, want 0", ss["name"], depth)
		}
	}

	// The human-readable rendering carries the block too.
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	if text := readAll(t, resp); !bytes.Contains([]byte(text), []byte("pipeline:")) {
		t.Fatalf("text metrics missing pipeline line:\n%s", text)
	}
}

// TestPipelineStreamReplaysAcrossRestart finishes a pipeline job, restarts
// the serving layer on the same store, and asserts the recovered job's
// stream replays byte-identically from the journaled result.
func TestPipelineStreamReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	defer js.Close()

	s1 := New(Config{Workers: 2, Store: js})
	j, err := s1.Submit(JobRequest{Type: JobPipeline, Pipeline: pipelineSpec(0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s1, j.id); st.State != StateDone {
		t.Fatalf("job finished %q: %s", st.State, st.Error)
	}
	want := streamBytes(t, s1, j.id)
	if len(want) == 0 {
		t.Fatalf("empty stream from live job")
	}
	shutdownServer(t, s1)

	s2 := New(Config{Workers: 2, Store: js})
	defer shutdownServer(t, s2)
	st := waitTerminal(t, s2, j.id)
	if st.State != StateDone || st.Pipeline == nil || st.Pipeline.Records != 3 {
		t.Fatalf("recovered job status = %+v", st)
	}
	if got := streamBytes(t, s2, j.id); !bytes.Equal(got, want) {
		t.Fatalf("recovered stream differs:\n got %s\nwant %s", got, want)
	}
}

// TestPipelineResumesFromWALAfterRestart rebuilds the durable state a
// daemon killed mid-pipeline leaves behind — an accepted, unfinished job
// whose first two stage boundaries are checkpointed — and asserts the
// restarted server resumes at the deepest completed stage and streams the
// same bytes an uninterrupted run would have.
func TestPipelineResumesFromWALAfterRestart(t *testing.T) {
	dir := t.TempDir()
	js := openServeStore(t, dir)
	defer js.Close()

	const id = "j000001"
	req := JobRequest{Type: JobPipeline, Pipeline: pipelineSpec(0)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Accepted(id, "", body); err != nil {
		t.Fatal(err)
	}
	// The crashed daemon had finished filter and align: run the same
	// pipeline's two-stage head against the same WAL entry to lay down
	// exactly those checkpoints.
	head := pipelineSpec(0)
	head.Stages = head.Stages[:2]
	if err := head.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Run(context.Background(), head, &pipeline.Env{Store: js, JobID: id}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, Store: js})
	defer shutdownServer(t, s)
	st := waitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("recovered job finished %q: %s", st.State, st.Error)
	}
	if st.Pipeline == nil || st.Pipeline.ResumedStages != 2 {
		t.Fatalf("resumed_stages = %+v, want 2", st.Pipeline)
	}

	fresh := pipelineSpec(0)
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamBytes(t, s, id), ndjson(t, res.Output); !bytes.Equal(got, want) {
		t.Fatalf("resumed stream differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestPipelineConcurrentCancelNoLeak floods the pool with slow pipeline
// jobs whose deadlines expire mid-stream — some while running, some still
// queued — and asserts every stage goroutine unwinds.
func TestPipelineConcurrentCancelNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 8, QueueCap: 128})

	slow := func() *pipeline.Spec {
		return &pipeline.Spec{
			N: 500, Len: 20, Seed: 11,
			Stages: []pipeline.StageSpec{
				{Name: "filter", DelayMicros: 5_000}, // 2.5s of stage work
				{Name: "report"},
			},
		}
	}
	ids := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		j, err := s.Submit(JobRequest{Type: JobPipeline, DeadlineMillis: 50, Pipeline: slow()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.id)
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateError {
			t.Fatalf("job %s finished %q, want deadline error", id, st.State)
		}
	}
	shutdownServer(t, s)
	settleGoroutines(t, base)
}

// TestPipelineValidation rejects malformed pipeline submissions at
// admission.
func TestPipelineValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)

	bad := []JobRequest{
		{Type: JobPipeline}, // no spec
		{Type: JobPipeline, Tree: &TreeSpec{}, Pipeline: pipelineSpec(0)},                                                              // mixed specs
		{Type: JobAlign, Pipeline: pipelineSpec(0)},                                                                                    // pipeline spec on an align job
		{Type: JobPipeline, Pipeline: &pipeline.Spec{N: 4, Len: 20}},                                                                   // no stages
		{Type: JobPipeline, Pipeline: &pipeline.Spec{N: 4, Len: 20, Stages: []pipeline.StageSpec{{Name: "report"}, {Name: "filter"}}}}, // report not last
	}
	for i, req := range bad {
		if _, err := s.Submit(req); !errors.Is(err, errBadRequest) {
			t.Fatalf("case %d: err = %v, want bad request", i, err)
		}
	}

	good := JobRequest{Type: JobPipeline, Pipeline: pipelineSpec(0)}
	j, err := s.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, j.id); st.State != StateDone {
		t.Fatalf("good spec finished %q: %s", st.State, st.Error)
	}
}
