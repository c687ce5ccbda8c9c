package store

import (
	"encoding/json"
	"testing"
)

func TestDecisionSurvivesReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{SegmentBytes: 256, CompactAfter: -1})
	if err := s.Accepted("j1", "c1", []byte(`{"type":"search"}`)); err != nil {
		t.Fatal(err)
	}
	s.Decision("j1", "shortcircuit", []byte(`{"pos":7}`))
	if got := s.Decisions("j1"); string(got["shortcircuit"]) != `{"pos":7}` {
		t.Fatalf("live decisions = %v", got)
	}

	// Replay on a fresh open rebuilds the decision.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir, Options{})
	if got := r.Decisions("j1"); string(got["shortcircuit"]) != `{"pos":7}` {
		t.Fatalf("replayed decisions = %v", got)
	}

	// Compaction keeps it among the live records.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	c := openTestStore(t, dir, Options{})
	if got := c.Decisions("j1"); string(got["shortcircuit"]) != `{"pos":7}` {
		t.Fatalf("compacted decisions = %v", got)
	}
	if c.Metrics().IncompleteJobs != 1 {
		t.Fatalf("incomplete = %d", c.Metrics().IncompleteJobs)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionClearedOnTerminal(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: -1})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Accepted("j1", "", []byte(`{}`)))
	s.Decision("j1", "shortcircuit", []byte(`1`))
	s.Finish("j1", []byte(`{"ok":true}`), "")()
	if got := s.Decisions("j1"); got != nil {
		t.Fatalf("decisions after done = %v", got)
	}
	// A decision for an unknown or terminal job is ignored on replay too.
	s.Decision("j1", "late", []byte(`2`))
	s.Decision("ghost", "x", []byte(`3`))
	must(s.Close())
	r := openTestStore(t, dir, Options{})
	if got := r.Decisions("j1"); got != nil {
		t.Fatalf("replayed terminal decisions = %v", got)
	}
	if got := r.Decisions("ghost"); got != nil {
		t.Fatalf("ghost decisions = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointKeyStringAndRollingOverwrite(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: -1})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Accepted("g1", "", []byte(`{"type":"grid"}`)))
	s.CheckpointKey("g1", "sweep", []byte(`{"sweep":10}`))
	s.CheckpointKey("g1", "sweep", []byte(`{"sweep":20}`))
	s.CheckpointKey("g1", "p:0.1", []byte(`[3,4]`))
	// Integer-keyed API still round-trips through the same map.
	s.Checkpoint("g1", 7, []byte(`42`))

	check := func(s *JobStore, phase string) {
		t.Helper()
		all := s.CheckpointsKey("g1")
		if string(all["sweep"]) != `{"sweep":20}` {
			t.Fatalf("%s: rolling key = %s", phase, all["sweep"])
		}
		if string(all["p:0.1"]) != `[3,4]` {
			t.Fatalf("%s: path key = %s", phase, all["p:0.1"])
		}
		ints := s.Checkpoints("g1")
		if len(ints) != 1 || string(ints[7]) != `42` {
			t.Fatalf("%s: int view = %v", phase, ints)
		}
	}
	check(s, "live")
	must(s.Close())
	r := openTestStore(t, dir, Options{})
	check(r, "replayed")
	must(r.Compact())
	must(r.Close())
	c := openTestStore(t, dir, Options{})
	check(c, "compacted")
	must(c.Close())
}

func TestDecisionMetricsCount(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{CompactAfter: -1})
	if err := s.Accepted("j1", "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Decision("j1", "shortcircuit", []byte(`1`))
	if got := s.Metrics().DecisionWrites; got != 1 {
		t.Fatalf("decision_writes = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
