package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/skel"
	"repro/internal/store"
	"repro/internal/trace"
)

// local is motifd's executor, the skeleton pool: the Server seen through
// the Executor interface. Each dispatch loop is one pool worker.
type local Server

// Key is the request's content digest when the memo layer is on: motifd
// collapses identical live submissions and answers finished ones from the
// memo.
func (s *local) Key(req *JobRequest) (memo.Key, bool) {
	if s.memo == nil {
		return memo.Key{}, false
	}
	return ContentKey(req)
}

// Cached answers a submission from the job-level memo.
func (s *local) Cached(key memo.Key) (Results, bool) {
	v, _ := s.memo.Get(key)
	blob, _ := v.(memo.Bytes)
	return memoResults(blob)
}

// Fill publishes a success under its content digest, so identical
// submissions answer without queueing.
func (s *local) Fill(key memo.Key, res Results) {
	if blob := memoPayload(res); blob != nil {
		s.memo.Put(key, blob)
	}
}

// Job builds motifd's job. A live pipeline job gets its record stream
// before it is published, since a client may open GET
// /v1/jobs/{id}/stream the moment the 202 lands; a replayed one resumes
// from its WAL checkpoints, its stream replaying the completed prefix.
func (s *local) Job(t *Task[*Job], _ *store.JobState) *Job {
	if t.req.Type == JobPipeline && t.life.Live() {
		t.stream = newRecordStream()
	}
	return &Job{Task: t, worker: -1}
}

// Run is one pool worker's dispatch: the job it pulled, opportunistically
// more queued work, executed. Every transition is narrated into the trace
// ring with the same event vocabulary as the simulated machine.
func (s *local) Run(w int, j *Job) {
	batch := s.gather(j)
	s.met.workerBusy(w, s.host.Micros())
	s.host.Emit(trace.Event{Cycle: s.host.Micros(), Kind: trace.KindBusy, Proc: w, From: -1})
	s.runBatch(w, batch)
	s.host.Emit(trace.Event{Cycle: s.host.Micros(), Kind: trace.KindIdle, Proc: w, From: -1})
	s.met.workerIdle(w, s.host.Micros())
}

// View is the job's status.
func (s *local) View(j *Job, full bool) any {
	st := j.Status()
	if !full {
		st.Results = Results{}
	}
	return st
}

// Chrome replays the ring into the Chrome exporter, so the stream opens
// directly in chrome://tracing / Perfetto.
func (s *local) Chrome(w http.ResponseWriter, events []trace.Event) {
	WriteChrome(w, "motifd-trace.json", events)
}

// gather collects the dispatch for one worker wake-up: the job it pulled
// plus, when that job is a batchable small alignment, up to BatchMax-1
// more jobs drained from the queue without blocking. The drain only finds
// work when every worker is busy (an idle worker would have been handed
// the job directly), which is exactly when amortizing dispatches matters.
func (s *local) gather(first *Job) []*Job {
	batch := []*Job{first}
	if !s.batchable(first) {
		return batch
	}
	for len(batch) < s.cfg.BatchMax {
		t, ok := s.host.pop(false)
		if !ok {
			return batch
		}
		j := t.job
		batch = append(batch, j)
		if !s.batchable(j) {
			// Keep draining only while the tail stays batchable; a big
			// job ends the batch (it still runs, after the small ones).
			return batch
		}
	}
	return batch
}

// batchable reports whether j is a small alignment job — the class the
// serving layer coalesces into one farm dispatch.
func (s *local) batchable(j *Job) bool {
	return j.req.Type == JobAlign && j.req.Align.Cost() <= batchCostMax
}

// runBatch executes a dispatch on worker w. The batchable alignment jobs
// run as one farm dispatch (skel.Farm over the jobs); anything else in the
// dispatch runs individually after.
func (s *local) runBatch(w int, batch []*Job) {
	var aligns, rest []*Job
	for _, j := range batch {
		if s.batchable(j) {
			aligns = append(aligns, j)
		} else {
			rest = append(rest, j)
		}
	}
	if len(aligns) == 1 {
		rest = append(aligns, rest...)
		aligns = nil
	}
	if len(aligns) > 1 {
		s.met.recordBatch(len(aligns))
		inner := len(aligns)
		if inner > s.cfg.BatchMax {
			inner = s.cfg.BatchMax
		}
		// One farm dispatch over the batch: the jobs are the tasks. Each
		// job still runs under its own deadline context.
		_, _, _ = skel.Farm(context.Background(), aligns, func(j *Job) struct{} {
			s.runJob(w, j, len(aligns))
			return struct{}{}
		}, skel.FarmOptions{Workers: inner})
	}
	for _, j := range rest {
		s.runJob(w, j, 1)
	}
}

// runJob moves one job through running → done/error on worker w.
func (s *local) runJob(w int, j *Job, batchSize int) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	j.mu.Lock()
	j.worker = w
	j.batchSize = batchSize
	j.mu.Unlock()
	if err := j.ctx.Err(); err != nil {
		// Deadline spent entirely in the queue: fail without running.
		s.host.Bind(j.Task, Outcome{State: StateError, Err: "deadline exceeded while queued"})
		return
	}
	if !j.life.Start() {
		return // refused while queued
	}
	start := time.Now()

	s.host.Emit(trace.Event{Cycle: s.host.Micros(), Kind: trace.KindExecStart,
		Proc: w, From: -1, Label: string(j.req.Type) + ":" + j.id})

	res, cached := s.resolveFromCache(j)
	var err error
	if !cached {
		res, err = j.execute(s.reduceOpts(j), s.memo, s.pipelineEnv(j), s.motifEnv(j))
	}
	dur := time.Since(start)
	var resumed int64
	switch {
	case res.Tree != nil:
		resumed = res.Tree.ResumedNodes
	case res.Grid != nil && res.Grid.ResumedSweeps > 0:
		resumed = 1 // one snapshot restored
	case res.Sort != nil:
		resumed = res.Sort.ResumedPaths
	}
	s.met.motif.observe(&res)
	s.cfg.Store.NoteCheckpointHits(resumed)
	// Feed the admission scheduler's drain-time estimate (Retry-After on
	// sheds) with the observed service time.
	s.host.ObserveDone(j.req.Tenant, dur)

	s.host.Emit(trace.Event{Cycle: s.host.Micros(), Kind: trace.KindExecFinish,
		Proc: w, From: -1, Arg: dur.Microseconds(), Label: string(j.req.Type) + ":" + j.id})
	s.met.workers[w].jobs.Add(1)
	o := Outcome{State: StateDone, Results: res}
	if err != nil {
		o = Outcome{State: StateError, Err: err.Error()}
	}
	s.host.Bind(j.Task, o)
}

// resolveFromCache answers a running job from the content-addressed tier
// without executing it: either the local cache filled since admission (an
// identical job finished while this one queued) or a peer worker holds the
// entry (memoshare fetch, checksum-verified on receipt, filled locally by
// the fetcher). Reads the local cache through Peek so the re-check doesn't
// double-count the miss already recorded at admission. False means compute.
func (s *local) resolveFromCache(j *Job) (Results, bool) {
	if s.memo == nil || !j.hasKey {
		return Results{}, false
	}
	v, _ := s.memo.Peek(j.key)
	blob, _ := v.(memo.Bytes)
	if blob == nil {
		blob, _ = s.fetcher.Load().Fetch(j.ctx, j.key)
	}
	return memoResults(blob)
}

// pipelineEnv is the host environment a pipeline job runs against: the
// pool's inner-worker budget, the shared memo cache (stage-prefix reuse),
// the WAL and job identity (stage-boundary checkpoints), the server-wide
// pipeline metrics registry, the trace ring on the pool's clock, and the
// job's NDJSON stream as the record sink. Nil for other job types.
func (s *local) pipelineEnv(j *Job) *pipeline.Env {
	if j.req.Type != JobPipeline {
		return nil
	}
	env := &pipeline.Env{
		Workers:     s.cfg.InnerWorkers,
		Cache:       s.memo,
		Store:       s.cfg.Store,
		JobID:       j.id,
		Metrics:     s.pipe,
		Tracer:      s.host.ring,
		TraceMicros: s.host.Micros,
		Tenant:      j.req.Tenant,
	}
	if stream := j.stream; stream != nil {
		env.Emit = func(rec pipeline.Record) {
			if blob, err := json.Marshal(rec); err == nil {
				stream.append(blob)
			}
		}
	}
	return env
}

// motifEnv is the hook environment a search, grid, or sort job runs
// against: the pool's inner-worker budget plus, with a durable store, the
// job's WAL slice — string-keyed checkpoints for grid snapshots and sort
// subtree results, and decision records for the search shortcircuit
// commitment. The Decision hook is durable-before-return (store.Decision
// fsyncs), which is what lets the engine fire it before the early-stop
// signal fans out; it also surfaces the decision on the job status so a
// cluster coordinator polling this worker can harvest it. Nil for other
// job types.
func (s *local) motifEnv(j *Job) *jobs.Env {
	switch j.req.Type {
	case JobSearch, JobGrid, JobSort:
	default:
		return nil
	}
	env := &jobs.Env{Workers: s.cfg.InnerWorkers}
	st := s.cfg.Store
	id := j.id
	// The decision note always surfaces on the job status — even without a
	// local WAL — so a cluster coordinator polling this worker can journal
	// the commitment on its own side of the fence.
	env.Decision = func(reason string, data []byte) {
		st.Decision(id, reason, data)
		j.life.NoteDecision(reason, data)
	}
	if st == nil {
		return env
	}
	env.Checkpoint = func(key string, data []byte) {
		st.CheckpointKey(id, key, data)
	}
	if ckpts := st.CheckpointsKey(id); len(ckpts) > 0 {
		env.Resume = func(key string) ([]byte, bool) {
			raw, ok := ckpts[key]
			return raw, ok
		}
	}
	if decs := st.Decisions(id); len(decs) > 0 {
		env.Decided = func(reason string) ([]byte, bool) {
			raw, ok := decs[reason]
			if ok {
				// Replayed lives surface the inherited decision too, so a
				// poller sees it even before the engine finishes honoring it.
				j.life.NoteDecision(reason, raw)
			}
			return raw, ok
		}
	}
	return env
}

// reduceOpts are the skeleton options every job body runs with: the inner
// parallelism of one job's reduction. Workers-per-job times pool workers
// can exceed GOMAXPROCS; the Go scheduler time-slices, and the farm/tree
// skeletons are allocation-light, so modest oversubscription is fine.
//
// With a durable store, tree jobs additionally journal every materialized
// subtree value and restore whatever the log already holds: the tree is
// deterministic from its spec, so a preorder node index identifies the
// same subtree across restarts.
func (s *local) reduceOpts(j *Job) skel.ReduceOptions {
	opts := skel.ReduceOptions{
		Workers: s.cfg.InnerWorkers,
		Mapper:  skel.MapRandom,
		Seed:    s.cfg.Seed,
	}
	if s.cfg.Store == nil || j.req.Type != JobTree {
		return opts
	}
	st, id := s.cfg.Store, j.id
	opts.Checkpoint = func(node int, v any) {
		val, ok := v.(int64)
		if !ok {
			return
		}
		if data, err := json.Marshal(val); err == nil {
			st.Checkpoint(id, node, data)
		}
	}
	if ckpts := st.Checkpoints(id); len(ckpts) > 0 {
		opts.Resume = func(node int) (any, bool) {
			raw, ok := ckpts[node]
			if !ok {
				return nil, false
			}
			var val int64
			if err := json.Unmarshal(raw, &val); err != nil {
				return nil, false
			}
			return val, true
		}
	}
	return opts
}

// batchCostMax is the AlignJob.Cost threshold below which an alignment
// job counts as "small" and batches: a synthetic family of 12 sequences
// of length 100 (12*100*100) sits just under it.
const batchCostMax = 12*100*100 + 1
