// Package store is the durability subsystem: an append-only, fsync-batched,
// CRC-checked write-ahead log journaling the full job lifecycle (accepted →
// placed → checkpointed → done/failed) for the serving daemon and the
// cluster coordinator.
//
// The paper's Server and Scheduler motifs assume a request shipped to a
// processor is eventually answered; the WAL makes that hold across process
// death. On restart the log is replayed: terminal jobs answer duplicate
// submissions idempotently, incomplete jobs are re-run, and journaled
// reduction checkpoints let skel.TreeReduce resume from completed subtrees
// instead of from scratch.
//
// A *JobStore is optional everywhere it is accepted: the nil store is a
// valid no-op, so callers journal unconditionally.
package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Record kinds as they appear in the log.
const (
	recAccepted = "accepted"
	recPlaced   = "placed"
	recCkpt     = "ckpt"
	recDecision = "decision"
	recDone     = "done"
	recFailed   = "failed"
)

// record is one journaled lifecycle transition. Field names are terse
// because every record is framed, CRC'd, and fsynced to disk.
type record struct {
	Kind   string          `json:"k"`
	Job    string          `json:"j"`
	Client string          `json:"c,omitempty"` // idempotency key (accepted)
	Worker string          `json:"w,omitempty"` // placement target (placed)
	Node   string          `json:"n,omitempty"` // checkpoint key (ckpt) / decision reason (decision)
	Data   json.RawMessage `json:"d,omitempty"` // request / value / result
	Err    string          `json:"e,omitempty"` // failure message (failed)
}

// Status is a job's journaled lifecycle state.
type Status string

// Lifecycle states, in order.
const (
	StatusAccepted Status = "accepted"
	StatusPlaced   Status = "placed"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s == StatusDone || s == StatusFailed }

// JobState is the replayed state of one job.
type JobState struct {
	ID      string
	Client  string
	Worker  string
	Status  Status
	Request json.RawMessage
	Result  json.RawMessage
	Error   string
}

// Options configures a JobStore. The zero value is usable.
type Options struct {
	// SegmentBytes rotates log segments at this size; 0 means 1 MiB.
	SegmentBytes int64
	// MaxJobs bounds the tracked job history: once exceeded, the oldest
	// terminal jobs are forgotten (and dropped at the next compaction).
	// 0 means 4096. Incomplete jobs are never evicted.
	MaxJobs int
	// CompactAfter triggers background compaction when the log reaches
	// this many segments; 0 means 6, negative disables auto-compaction.
	CompactAfter int
	// NoSync skips every fsync — for tests that exercise logic, not
	// durability.
	NoSync bool
}

func (o *Options) fill() {
	if o.MaxJobs == 0 {
		o.MaxJobs = 4096
	}
	if o.CompactAfter == 0 {
		o.CompactAfter = 6
	}
}

// JobStore journals job lifecycle transitions to a WAL and keeps the
// replayed state queryable. All methods are safe for concurrent use and
// safe on a nil receiver (no-ops), so integration points journal
// unconditionally.
type JobStore struct {
	opts  Options
	start time.Time

	mu        sync.Mutex
	w         *wal
	jobs      map[string]*JobState
	order     []string // insertion order, for bounded eviction and stable listing
	ckpts     map[string]map[string]json.RawMessage
	decisions map[string]map[string]json.RawMessage
	tracer    trace.Tracer

	compacting     bool
	ckptWrites     atomic.Int64
	decisionWrites atomic.Int64
	hits           atomic.Int64
}

// Open opens (creating if needed) the store in dir and replays its log.
func Open(dir string, opts Options) (*JobStore, error) {
	opts.fill()
	s := &JobStore{
		opts:      opts,
		start:     time.Now(),
		jobs:      make(map[string]*JobState),
		ckpts:     make(map[string]map[string]json.RawMessage),
		decisions: make(map[string]map[string]json.RawMessage),
	}
	w, err := openWAL(dir, opts.SegmentBytes, opts.NoSync, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("undecodable record: %w", err)
		}
		s.applyLocked(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.w = w
	return s, nil
}

func (s *JobStore) sinceMicros() int64 { return time.Since(s.start).Microseconds() }

// SetTracer attaches a tracer for journal/replay/compaction events and
// immediately emits the replay summary of the open that built this store.
func (s *JobStore) SetTracer(t trace.Tracer) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	s.tracer = t
	replayed := s.w.replayed
	s.mu.Unlock()
	t.Event(trace.Event{Cycle: s.sinceMicros(), Kind: trace.KindReplay,
		Proc: 0, From: -1, Arg: replayed})
}

// applyLocked folds one record into the in-memory state. It is the single
// transition function shared by replay and live appends, which is what
// makes crash recovery equivalent to having never crashed.
func (s *JobStore) applyLocked(rec record) {
	switch rec.Kind {
	case recAccepted:
		js := s.entryLocked(rec.Job)
		js.Client = rec.Client
		js.Request = rec.Data
		// motifd journals accepted after the enqueue, so a fast job's
		// terminal record can land first: a status never moves back.
		if !js.Status.Terminal() {
			js.Status = StatusAccepted
		}
	case recPlaced:
		if js, ok := s.jobs[rec.Job]; ok && !js.Status.Terminal() {
			js.Worker = rec.Worker
			js.Status = StatusPlaced
		}
	case recCkpt:
		js, ok := s.jobs[rec.Job]
		if !ok || js.Status.Terminal() {
			return
		}
		m := s.ckpts[rec.Job]
		if m == nil {
			m = make(map[string]json.RawMessage)
			s.ckpts[rec.Job] = m
		}
		m[rec.Node] = rec.Data
	case recDecision:
		// A decision is a commitment made while the job was still running
		// (e.g. an early-terminated search's winning solution). Like
		// checkpoints it only matters for incomplete jobs: once the job is
		// terminal the result record subsumes it.
		js, ok := s.jobs[rec.Job]
		if !ok || js.Status.Terminal() {
			return
		}
		m := s.decisions[rec.Job]
		if m == nil {
			m = make(map[string]json.RawMessage)
			s.decisions[rec.Job] = m
		}
		m[rec.Node] = rec.Data
	case recDone:
		js := s.entryLocked(rec.Job)
		js.Status = StatusDone
		js.Result = rec.Data
		delete(s.ckpts, rec.Job)
		delete(s.decisions, rec.Job)
		s.evictLocked()
	case recFailed:
		js := s.entryLocked(rec.Job)
		js.Status = StatusFailed
		js.Error = rec.Err
		delete(s.ckpts, rec.Job)
		delete(s.decisions, rec.Job)
		s.evictLocked()
	}
}

// entryLocked returns the job's state, creating it on its first record.
func (s *JobStore) entryLocked(id string) *JobState {
	js, ok := s.jobs[id]
	if !ok {
		js = &JobState{ID: id}
		s.jobs[id] = js
		s.order = append(s.order, id)
	}
	return js
}

// evictLocked forgets the oldest terminal jobs beyond the MaxJobs bound.
func (s *JobStore) evictLocked() {
	for len(s.jobs) > s.opts.MaxJobs {
		victim := -1
		for i, id := range s.order {
			if s.jobs[id].Status.Terminal() {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		delete(s.jobs, s.order[victim])
		s.order = append(s.order[:victim], s.order[victim+1:]...)
	}
}

// appendRecord journals one record: write + apply under mu (so compaction
// snapshots are exact cuts), then a group-committed fsync outside it.
func (s *JobStore) appendRecord(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	n, err := s.w.append(payload)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.applyLocked(rec)
	tr := s.tracer
	s.mu.Unlock()
	if tr != nil {
		tr.Event(trace.Event{Cycle: s.sinceMicros(), Kind: trace.KindJournal,
			Proc: 0, From: -1, Arg: int64(len(payload)), Label: rec.Kind})
	}
	if err := s.w.syncTo(n); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// Accepted journals a newly admitted job: its durable ID, the client's
// idempotency key (may be empty), and the encoded request. The job is
// durable when Accepted returns, so callers acknowledge the client after.
func (s *JobStore) Accepted(id, client string, req []byte) error {
	if s == nil {
		return nil
	}
	return s.appendRecord(record{Kind: recAccepted, Job: id, Client: client, Data: req})
}

// Placed journals a placement onto a worker.
func (s *JobStore) Placed(id, worker string) error {
	if s == nil {
		return nil
	}
	return s.appendRecord(record{Kind: recPlaced, Job: id, Worker: worker})
}

// Checkpoint journals one materialized subtree value for the job, keyed by
// the reduction's stable node index.
func (s *JobStore) Checkpoint(id string, node int, val []byte) error {
	return s.CheckpointKey(id, strconv.Itoa(node), val)
}

// CheckpointKey journals one materialized partial value for the job under
// an arbitrary stable key — a division path for divide-and-conquer, a
// rolling "sweep" slot for grid relaxation. Re-journaling a key supersedes
// the previous value (and compaction drops the superseded record).
func (s *JobStore) CheckpointKey(id, key string, val []byte) error {
	if s == nil {
		return nil
	}
	s.ckptWrites.Add(1)
	return s.appendRecord(record{Kind: recCkpt, Job: id, Node: key, Data: val})
}

// Decision journals an irreversible mid-flight commitment for an incomplete
// job, keyed by reason — e.g. reason "shortcircuit" with an early-terminated
// search's winning solution. Unlike a checkpoint (a resumable partial), a
// decision binds what the final result must be: replay, cluster retry, and
// standby takeover complete the job from the journaled decision instead of
// re-running it. The record is durable when Decision returns.
func (s *JobStore) Decision(id, reason string, data []byte) error {
	if s == nil {
		return nil
	}
	s.decisionWrites.Add(1)
	return s.appendRecord(record{Kind: recDecision, Job: id, Node: reason, Data: data})
}

// Done journals successful completion with the encoded result.
func (s *JobStore) Done(id string, result []byte) error {
	if s == nil {
		return nil
	}
	return s.appendRecord(record{Kind: recDone, Job: id, Data: result})
}

// Failed journals terminal failure.
func (s *JobStore) Failed(id, msg string) error {
	if s == nil {
		return nil
	}
	return s.appendRecord(record{Kind: recFailed, Job: id, Err: msg})
}

// NoteCheckpointHits counts node evaluations a resumed reduction skipped
// thanks to journaled checkpoints (surfaced in metrics as the checkpoint
// hit-rate).
func (s *JobStore) NoteCheckpointHits(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.hits.Add(n)
}

// Jobs returns every tracked job in acceptance order.
func (s *JobStore) Jobs() []JobState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Incomplete returns the jobs that were accepted but never reached a
// terminal state — the ones a restart must re-run.
func (s *JobStore) Incomplete() []JobState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobState
	for _, id := range s.order {
		if js := s.jobs[id]; !js.Status.Terminal() {
			out = append(out, *js)
		}
	}
	return out
}

// Checkpoints returns the job's journaled subtree values by node index;
// non-integer keys (journaled via CheckpointKey) are omitted.
func (s *JobStore) Checkpoints(id string) map[int]json.RawMessage {
	m := s.CheckpointsKey(id)
	if len(m) == 0 {
		return nil
	}
	out := make(map[int]json.RawMessage, len(m))
	for k, v := range m {
		if node, err := strconv.Atoi(k); err == nil {
			out[node] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// CheckpointsKey returns the job's journaled partial values by string key.
func (s *JobStore) CheckpointsKey(id string) map[string]json.RawMessage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.ckpts[id]
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]json.RawMessage, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Decisions returns the job's journaled mid-flight commitments by reason;
// nil once the job is terminal (the result subsumes them) or when none were
// journaled.
func (s *JobStore) Decisions(id string) map[string]json.RawMessage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.decisions[id]
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]json.RawMessage, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// liveRecordsLocked re-derives the minimal record sequence that rebuilds
// the current state — the contents of a compaction snapshot.
func (s *JobStore) liveRecordsLocked() [][]byte {
	var out [][]byte
	add := func(rec record) {
		if p, err := json.Marshal(rec); err == nil {
			out = append(out, p)
		}
	}
	for _, id := range s.order {
		js := s.jobs[id]
		add(record{Kind: recAccepted, Job: id, Client: js.Client, Data: js.Request})
		if js.Worker != "" {
			add(record{Kind: recPlaced, Job: id, Worker: js.Worker})
		}
		if m := s.ckpts[id]; len(m) > 0 {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				add(record{Kind: recCkpt, Job: id, Node: k, Data: m[k]})
			}
		}
		if m := s.decisions[id]; len(m) > 0 {
			reasons := make([]string, 0, len(m))
			for r := range m {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			for _, r := range reasons {
				add(record{Kind: recDecision, Job: id, Node: r, Data: m[r]})
			}
		}
		switch js.Status {
		case StatusDone:
			add(record{Kind: recDone, Job: id, Data: js.Result})
		case StatusFailed:
			add(record{Kind: recFailed, Job: id, Err: js.Error})
		}
	}
	return out
}

// Compact rewrites the log down to its live records, dropping every
// superseded transition and evicted job. Appends continue concurrently.
func (s *JobStore) Compact() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	live := s.liveRecordsLocked()
	cut, err := s.w.beginCompact()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	tr := s.tracer
	s.mu.Unlock()
	if err := s.w.finishCompact(cut, live); err != nil {
		return err
	}
	if tr != nil {
		tr.Event(trace.Event{Cycle: s.sinceMicros(), Kind: trace.KindCompact,
			Proc: 0, From: -1, Arg: int64(len(live))})
	}
	return nil
}

// maybeCompact starts one background compaction when the segment count
// crosses the configured threshold.
func (s *JobStore) maybeCompact() {
	if s.opts.CompactAfter < 0 || s.w.segments() < s.opts.CompactAfter {
		return
	}
	s.mu.Lock()
	if s.compacting {
		s.mu.Unlock()
		return
	}
	s.compacting = true
	s.mu.Unlock()
	go func() {
		_ = s.Compact()
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
}

// MetricsSnapshot is the store block of the servers' /metrics documents.
type MetricsSnapshot struct {
	Segments         int     `json:"segments"`
	SizeBytes        int64   `json:"size_bytes"`
	WALRecords       int64   `json:"wal_records"`
	Appends          int64   `json:"appends"`
	Fsyncs           int64   `json:"fsyncs"`
	FsyncP50MS       float64 `json:"fsync_p50_ms"`
	FsyncP99MS       float64 `json:"fsync_p99_ms"`
	FsyncMaxMS       float64 `json:"fsync_max_ms"`
	ReplayedRecords  int64   `json:"replayed_records"`
	TornTails        int64   `json:"torn_tails"`
	Compactions      int64   `json:"compactions"`
	TrackedJobs      int     `json:"tracked_jobs"`
	IncompleteJobs   int     `json:"incomplete_jobs"`
	CheckpointWrites int64   `json:"checkpoint_writes"`
	CheckpointHits   int64   `json:"checkpoint_hits"`
	DecisionWrites   int64   `json:"decision_writes,omitempty"`
}

// Metrics returns the store's observable state; nil on a nil store, which
// the servers' snapshots render as an absent block.
func (s *JobStore) Metrics() *MetricsSnapshot {
	if s == nil {
		return nil
	}
	ws := s.w.stats()
	s.mu.Lock()
	tracked := len(s.jobs)
	incomplete := 0
	for _, js := range s.jobs {
		if !js.Status.Terminal() {
			incomplete++
		}
	}
	s.mu.Unlock()
	return &MetricsSnapshot{
		Segments:         ws.segments,
		SizeBytes:        ws.sizeBytes,
		WALRecords:       ws.records,
		Appends:          ws.appends,
		Fsyncs:           ws.fsyncs,
		FsyncP50MS:       ws.fsyncP50MS,
		FsyncP99MS:       ws.fsyncP99MS,
		FsyncMaxMS:       ws.fsyncMaxMS,
		ReplayedRecords:  ws.replayed,
		TornTails:        ws.tornTails,
		Compactions:      ws.compactions,
		TrackedJobs:      tracked,
		IncompleteJobs:   incomplete,
		CheckpointWrites: s.ckptWrites.Load(),
		CheckpointHits:   s.hits.Load(),
		DecisionWrites:   s.decisionWrites.Load(),
	}
}

// Close syncs and closes the log. Further appends fail.
func (s *JobStore) Close() error {
	if s == nil {
		return nil
	}
	return s.w.close()
}
