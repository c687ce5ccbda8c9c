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
	"errors"
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

	// held keeps ckpt and decision records that reached the log before
	// their job's accepted record (motifd journals accepted after the
	// enqueue); accepted applies them.
	held map[string][]record

	closed         bool
	compacting     bool
	compactWG      sync.WaitGroup
	ckptWrites     atomic.Int64
	decisionWrites atomic.Int64
	heldRecords    atomic.Int64
	hits           atomic.Int64
	errs           atomic.Int64
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
		held:      make(map[string][]record),
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
	// Records still held belong to a job its dead process never
	// acknowledged. Fail it durably, so its id is never handed out again:
	// a reused id would inherit the records on a later replay.
	for _, id := range sortedKeys(s.held) {
		if err := s.journal(record{Kind: recFailed, Job: id, Err: "never acknowledged"}); err != nil {
			return nil, errors.Join(err, s.Close())
		}
	}
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
		held := s.held[rec.Job]
		delete(s.held, rec.Job)
		// motifd journals accepted after the enqueue, so a fast job's
		// terminal record can land first: a status never moves back.
		if !js.Status.Terminal() {
			js.Status = StatusAccepted
			for _, h := range held {
				s.applyLocked(h)
			}
		}
	case recPlaced:
		if js, ok := s.jobs[rec.Job]; ok && !js.Status.Terminal() {
			js.Worker = rec.Worker
			js.Status = StatusPlaced
		}
	case recCkpt, recDecision:
		// A checkpoint is a resumable partial; a decision is a commitment
		// made while the job was still running (e.g. an early-terminated
		// search's winning solution). Both only matter for incomplete
		// jobs: once the job is terminal the result record subsumes them.
		js, ok := s.jobs[rec.Job]
		if !ok {
			// The accepted record has not landed yet: hold this one for it.
			s.held[rec.Job] = append(s.held[rec.Job], rec)
			s.heldRecords.Add(1)
			return
		}
		if js.Status.Terminal() {
			return
		}
		byJob := s.ckpts
		if rec.Kind == recDecision {
			byJob = s.decisions
		}
		m := byJob[rec.Job]
		if m == nil {
			m = make(map[string]json.RawMessage)
			byJob[rec.Job] = m
		}
		m[rec.Node] = rec.Data
	case recDone, recFailed:
		js := s.entryLocked(rec.Job)
		if rec.Kind == recDone {
			js.Status, js.Result = StatusDone, rec.Data
		} else {
			js.Status, js.Error = StatusFailed, rec.Err
		}
		delete(s.ckpts, rec.Job)
		delete(s.decisions, rec.Job)
		delete(s.held, rec.Job)
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

// The store's error policy: every failed append or fsync is counted in
// Metrics().Errors (count), and only an accepted record's error reaches the
// caller, which refuses the job. Every other record is best-effort to its
// caller: the job runs on, and a restart re-runs it from what did land.

// commit appends rec and applies it to the in-memory state under mu (so
// compaction snapshots are exact cuts), returning its sequence number for
// the group-committed fsync (w.syncTo) that makes it durable.
func (s *JobStore) commit(rec record) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	n, err := s.w.append(payload)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.applyLocked(rec)
	tr := s.tracer
	s.mu.Unlock()
	if tr != nil {
		tr.Event(trace.Event{Cycle: s.sinceMicros(), Kind: trace.KindJournal,
			Proc: 0, From: -1, Arg: int64(len(payload)), Label: rec.Kind})
	}
	s.maybeCompact()
	return n, nil
}

// journal commits rec and waits until it is durable.
func (s *JobStore) journal(rec record) error {
	n, err := s.commit(rec)
	if err == nil {
		err = s.w.syncTo(n)
	}
	return err
}

// note journals a record whose caller cannot act on a failure.
func (s *JobStore) note(rec record) { s.count(s.journal(rec)) }

// count is the store's one error sink: Metrics().Errors.
func (s *JobStore) count(err error) {
	if err != nil {
		s.errs.Add(1)
	}
}

// Accepted journals a newly admitted job: its durable ID, the client's
// idempotency key (may be empty), and the encoded request. The job is
// durable when Accepted returns nil, so callers acknowledge the client
// after; on an error they refuse the job instead.
func (s *JobStore) Accepted(id, client string, req []byte) error {
	if s == nil {
		return nil
	}
	err := s.journal(record{Kind: recAccepted, Job: id, Client: client, Data: req})
	s.count(err)
	return err
}

// Placed journals a placement onto a worker.
func (s *JobStore) Placed(id, worker string) {
	if s != nil {
		s.note(record{Kind: recPlaced, Job: id, Worker: worker})
	}
}

// Checkpoint journals one materialized subtree value for the job, keyed by
// the reduction's stable node index.
func (s *JobStore) Checkpoint(id string, node int, val []byte) {
	s.CheckpointKey(id, strconv.Itoa(node), val)
}

// CheckpointKey journals one materialized partial value for the job under
// an arbitrary stable key — a division path for divide-and-conquer, a
// rolling "sweep" slot for grid relaxation. Re-journaling a key supersedes
// the previous value (and compaction drops the superseded record).
func (s *JobStore) CheckpointKey(id, key string, val []byte) {
	if s == nil {
		return
	}
	s.ckptWrites.Add(1)
	s.note(record{Kind: recCkpt, Job: id, Node: key, Data: val})
}

// Decision journals an irreversible mid-flight commitment for an incomplete
// job, keyed by reason — e.g. reason "shortcircuit" with an early-terminated
// search's winning solution. Unlike a checkpoint (a resumable partial), a
// decision binds what the final result must be: replay, cluster retry, and
// standby takeover complete the job from the journaled decision instead of
// re-running it. The record is durable when Decision returns.
func (s *JobStore) Decision(id, reason string, data []byte) {
	if s == nil {
		return
	}
	s.decisionWrites.Add(1)
	s.note(record{Kind: recDecision, Job: id, Node: reason, Data: data})
}

// Finish appends the job's terminal record — done with result when failure
// is empty, failed with failure otherwise — and applies it, so Jobs,
// Incomplete and Decisions show the job terminal as Finish returns. The
// record is durable once the returned wait returns: a job's lifecycle
// publishes its outcome between the two, which keeps the fsync off the path
// to a visible terminal state.
func (s *JobStore) Finish(id string, result []byte, failure string) (durable func()) {
	if s == nil {
		return func() {}
	}
	rec := record{Kind: recDone, Job: id, Data: result}
	if failure != "" {
		rec = record{Kind: recFailed, Job: id, Err: failure}
	}
	n, err := s.commit(rec)
	if err != nil {
		s.count(err)
		return func() {}
	}
	return func() { s.count(s.w.syncTo(n)) }
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
	return s.copyOf(func() map[string]json.RawMessage { return s.ckpts[id] })
}

// Decisions returns the job's journaled mid-flight commitments by reason;
// nil once the job is terminal (the result subsumes them) or when none were
// journaled.
func (s *JobStore) Decisions(id string) map[string]json.RawMessage {
	return s.copyOf(func() map[string]json.RawMessage { return s.decisions[id] })
}

// copyOf copies the map pick returns under mu; nil when it is empty.
func (s *JobStore) copyOf(pick func() map[string]json.RawMessage) map[string]json.RawMessage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := pick()
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
		for _, k := range sortedKeys(s.ckpts[id]) {
			add(record{Kind: recCkpt, Job: id, Node: k, Data: s.ckpts[id][k]})
		}
		for _, r := range sortedKeys(s.decisions[id]) {
			add(record{Kind: recDecision, Job: id, Node: r, Data: s.decisions[id][r]})
		}
		switch js.Status {
		case StatusDone:
			add(record{Kind: recDone, Job: id, Data: js.Result})
		case StatusFailed:
			add(record{Kind: recFailed, Job: id, Err: js.Error})
		}
	}
	// Records still waiting for their accepted record are held again on
	// replay, where Open fails any job whose accepted never lands.
	for _, id := range sortedKeys(s.held) {
		for _, rec := range s.held[id] {
			add(rec)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	defer s.mu.Unlock()
	if s.compacting || s.closed {
		return
	}
	s.compacting = true
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		s.count(s.Compact())
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
	// HeldRecords counts ckpt and decision records that arrived before
	// their job's accepted record and were held for it.
	HeldRecords int64 `json:"held_records,omitempty"`
	// Errors counts appends and fsyncs that failed, and failed background
	// compactions.
	Errors int64 `json:"errors"`
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
		HeldRecords:      s.heldRecords.Load(),
		Errors:           s.errs.Load(),
	}
}

// Close waits for a running background compaction, then syncs and closes
// the log. Further appends fail.
func (s *JobStore) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.compactWG.Wait()
	return s.w.close()
}
