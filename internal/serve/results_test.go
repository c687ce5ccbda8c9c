package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/bio"
	"repro/internal/jobs"
	"repro/internal/pipeline"
)

// wireResults is a result block holding one result of every kind, the
// fixture behind the golden strings below.
func wireResults() Results {
	return Results{
		Align:  &bio.AlignJobResult{Names: []string{"a", "b"}, Rows: []string{"AC-U", "ACGU"}, Columns: 4, SPIdentity: 0.75, Consensus: "ACGU", Units: 1},
		Tree:   &TreeResult{Value: 24, Leaves: 4, Units: 3},
		Strand: &StrandResult{Reductions: 9, Makespan: 5, Messages: 2, Output: "24\n"},
		Pipeline: &pipeline.Result{Records: 1, Stages: []pipeline.StageResult{{Name: "source", Out: 1}},
			Output: []pipeline.Record{{Kind: "seq", Name: "s1", Seq: "ACGU", Len: 4}}},
		Search: &jobs.SearchResult{Matches: []jobs.Match{{Seq: "s1", Pos: 2}}, Total: 1, Seqs: 1, Bases: 8, Units: 7},
		Grid:   &jobs.GridResult{Rows: 8, Cols: 8, Sweeps: 10, Delta: 0.5, Center: 1.25, Checksum: "ab12"},
		Sort:   &jobs.SortResult{N: 16, Checksum: "cd34", Sorted: true, Units: 64},
	}
}

// TestResultsWireFormat pins the JSON that embedding Results produces to
// the bytes the flat per-kind fields produced: the JobStatus body keeps
// every key in place, and each job-level memo payload is unchanged.
func TestResultsWireFormat(t *testing.T) {
	st := JobStatus{ID: "j000001", Type: JobSearch, State: StateDone, QueueMillis: 1.5, RunMillis: 2.25,
		Worker: 1, BatchSize: 1, Tenant: "t", Class: "high", Results: wireResults(),
		Decision: &DecisionNote{Reason: "shortcircuit", Data: json.RawMessage(`{"seq":"s1"}`)}}
	const wantStatus = `{"id":"j000001","type":"search","state":"done","queue_ms":1.5,"run_ms":2.25,"worker":1,"batch_size":1,"tenant":"t","class":"high","align":{"names":["a","b"],"rows":["AC-U","ACGU"],"columns":4,"sp_identity":0.75,"consensus":"ACGU","units":1,"cross_messages":0},"tree":{"value":24,"leaves":4,"units":3,"cross_messages":0,"imbalance":0},"strand":{"reductions":9,"makespan":5,"messages":2,"output":"24\n"},"pipeline":{"records":1,"stages":[{"name":"source","in":0,"out":1}],"output":[{"kind":"seq","index":0,"name":"s1","seq":"ACGU","len":4}]},"search":{"matches":[{"seq":"s1","seq_index":0,"pos":2,"mismatches":0}],"total":1,"seqs":1,"bases":8,"units":7},"grid":{"rows":8,"cols":8,"sweeps":10,"delta":0.5,"converged":false,"center":1.25,"checksum":"ab12","units":0},"sort":{"n":16,"checksum":"cd34","sorted":true,"units":64},"decision":{"reason":"shortcircuit","data":{"seq":"s1"}}}`
	if got, err := json.Marshal(st); err != nil || string(got) != wantStatus {
		t.Fatalf("JobStatus JSON changed (err %v):\n got %s\nwant %s", err, got, wantStatus)
	}

	// Pipeline jobs have no content key, so they never reach the memo.
	all := wireResults()
	for _, tc := range []struct {
		res  Results
		want string
	}{
		{Results{Align: all.Align}, `{"align":{"names":["a","b"],"rows":["AC-U","ACGU"],"columns":4,"sp_identity":0.75,"consensus":"ACGU","units":1,"cross_messages":0}}`},
		{Results{Tree: all.Tree}, `{"tree":{"value":24,"leaves":4,"units":3,"cross_messages":0,"imbalance":0}}`},
		{Results{Strand: all.Strand}, `{"strand":{"reductions":9,"makespan":5,"messages":2,"output":"24\n"}}`},
		{Results{Search: all.Search}, `{"search":{"matches":[{"seq":"s1","seq_index":0,"pos":2,"mismatches":0}],"total":1,"seqs":1,"bases":8,"units":7}}`},
		{Results{Grid: all.Grid}, `{"grid":{"rows":8,"cols":8,"sweeps":10,"delta":0.5,"converged":false,"center":1.25,"checksum":"ab12","units":0}}`},
		{Results{Sort: all.Sort}, `{"sort":{"n":16,"checksum":"cd34","sorted":true,"units":64}}`},
	} {
		if got := memoPayload(tc.res); string(got) != tc.want {
			t.Errorf("memo payload changed:\n got %s\nwant %s", got, tc.want)
		}
		if back, ok := memoResults([]byte(tc.want)); !ok || string(memoPayload(back)) != tc.want {
			t.Errorf("memo payload %s does not round-trip", tc.want)
		}
	}
	if memoPayload(Results{}) != nil {
		t.Error("an empty result block was given a memo payload")
	}
}
