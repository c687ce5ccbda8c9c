package serve

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/skel"
	"repro/internal/trace"
)

// worker is one pool worker's main loop: pull a job, opportunistically
// drain more queued work, execute, repeat until the queue is closed and
// drained. Every transition is narrated into the trace ring with the same
// event vocabulary as the simulated machine (Cycle = µs since pool start).
func (s *Server) worker(w int) {
	defer s.workerWG.Done()
	for {
		j, ok := s.q.pop(true)
		if !ok {
			return
		}
		batch := s.gather(j)
		s.met.workerBusy(w)
		s.emit(trace.Event{Cycle: s.met.sinceMicros(), Kind: trace.KindBusy, Proc: w, From: -1})
		s.runBatch(w, batch)
		s.emit(trace.Event{Cycle: s.met.sinceMicros(), Kind: trace.KindIdle, Proc: w, From: -1})
		s.met.workerIdle(w)
	}
}

// gather collects the dispatch for one worker wake-up: the job it pulled
// plus, when that job is a batchable small alignment, up to BatchMax-1
// more jobs drained from the queue without blocking. The drain only finds
// work when every worker is busy (an idle worker would have been handed
// the job directly), which is exactly when amortizing dispatches matters.
func (s *Server) gather(first *Job) []*Job {
	batch := []*Job{first}
	if !s.batchable(first) {
		return batch
	}
	for len(batch) < s.cfg.BatchMax {
		j, ok := s.q.pop(false)
		if !ok {
			return batch
		}
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
func (s *Server) batchable(j *Job) bool {
	return j.req.Type == JobAlign && j.req.Align.Cost() <= s.cfg.BatchCostMax
}

// runBatch executes a dispatch on worker w. The batchable alignment jobs
// run as one farm dispatch (skel.Farm over the jobs); anything else in the
// dispatch runs individually after.
func (s *Server) runBatch(w int, batch []*Job) {
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
func (s *Server) runJob(w int, j *Job, batchSize int) {
	defer j.cancel()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	j.mu.Lock()
	j.worker = w
	j.batchSize = batchSize
	j.mu.Unlock()
	if err := j.ctx.Err(); err != nil {
		// Deadline spent entirely in the queue: fail without running.
		s.bind(j, Outcome{State: StateError, Err: "deadline exceeded while queued"})
		return
	}
	if !j.life.Start() {
		return // refused while queued
	}
	start := time.Now()

	s.emit(trace.Event{Cycle: s.met.sinceMicros(), Kind: trace.KindExecStart,
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
	s.q.sched.ObserveDone(j.req.Tenant, dur)

	s.emit(trace.Event{Cycle: s.met.sinceMicros(), Kind: trace.KindExecFinish,
		Proc: w, From: -1, Arg: dur.Microseconds(), Label: string(j.req.Type) + ":" + j.id})
	s.met.workers[w].jobs.Add(1)
	o := Outcome{State: StateDone, Results: res}
	if err != nil {
		o = Outcome{State: StateError, Err: err.Error()}
	}
	s.bind(j, o)
}

// resolveFromCache answers a running job from the content-addressed tier
// without executing it: either the local cache filled since admission (an
// identical job finished while this one queued) or a peer worker holds the
// entry (memoshare fetch, checksum-verified on receipt, filled locally by
// the fetcher). Reads the local cache through Peek so the re-check doesn't
// double-count the miss already recorded at admission. False means compute.
func (s *Server) resolveFromCache(j *Job) (Results, bool) {
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
func (s *Server) pipelineEnv(j *Job) *pipeline.Env {
	if j.req.Type != JobPipeline {
		return nil
	}
	env := &pipeline.Env{
		Workers:     s.cfg.InnerWorkers,
		Cache:       s.memo,
		Store:       s.cfg.Store,
		JobID:       j.id,
		Metrics:     s.pipe,
		Tracer:      s.ring,
		TraceMicros: s.met.sinceMicros,
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
func (s *Server) motifEnv(j *Job) *jobs.Env {
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

// bind binds j's outcome through motifd's terminal side effects. A job
// refused while it ran is already bound; its worker's Bind then changes
// nothing, so ErrBound needs no handling here.
func (s *Server) bind(j *Job, o Outcome) {
	_ = j.life.Bind(o, func(o Outcome) func() { return s.settle(j, o) })
}

// settle runs j's terminal side effects before its outcome is visible:
// count it, fill the memo with a cacheable success, release the ledger's
// content key, then append the terminal record and apply it to the
// store. It returns what follows publication: the record's fsync wait,
// then the NDJSON stream's EOF, so a client that sees EOF can poll the
// final status at once.
func (s *Server) settle(j *Job, o Outcome) (after func()) {
	switch o.State {
	case StateDone:
		s.met.done.Add(1)
	case StateError:
		s.met.failed.Add(1)
	}
	if o.State != StatePreempted {
		s.met.observeLatency(time.Since(j.life.Submitted()))
	}
	if j.hasKey {
		// Publish a success under its content digest so future identical
		// submissions answer without queueing, then retire the
		// singleflight entry.
		if o.State == StateDone {
			if blob := memoPayload(o.Results); blob != nil {
				s.memo.Put(j.key, blob)
			}
		}
		s.mu.Lock()
		s.ledger.ReleaseContent(j.id)
		s.mu.Unlock()
	}
	durable := func() {}
	if s.cfg.Store != nil {
		if o.State != StateDone {
			durable = s.cfg.Store.Finish(j.id, nil, o.Err)
		} else if data, err := json.Marshal(j.final(o)); err == nil {
			durable = s.cfg.Store.Finish(j.id, data, "")
		}
	}
	return func() {
		durable()
		if j.stream != nil {
			j.stream.close()
		}
	}
}

// final is the status j shows once o is bound: its WAL done record.
func (j *Job) final(o Outcome) JobStatus {
	st := j.Status()
	st.State, st.Error, st.Results = o.State, o.Err, o.Results
	return st
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
func (s *Server) reduceOpts(j *Job) skel.ReduceOptions {
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

// emit writes one event to the trace ring.
func (s *Server) emit(e trace.Event) {
	if s.ring != nil {
		s.ring.Event(e)
	}
}

// batchCostDefault is the default threshold below which an alignment job
// counts as "small": a synthetic family of 12 sequences of length 100
// (12*100*100) sits just under it.
const batchCostDefault = 12*100*100 + 1
