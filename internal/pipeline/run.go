package pipeline

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/skel"
	"repro/internal/store"
	"repro/internal/trace"
)

// Checkpoint node-space layout: stage boundary b (output of spec stage b)
// owns nodes [b·stride, (b+1)·stride); record idx lives at b·stride+idx and
// the completion marker — written only when the stage has emitted its whole
// output — at the top of the block. A stage that somehow emits ≥ stride-1
// records stops checkpointing rather than colliding with its neighbor.
const ckptStride = 1 << 20

// memoPrefixCap bounds how large a stage-boundary record set may grow and
// still be published to the content-addressed cache.
const memoPrefixCap = 1 << 20

func ckptNode(boundary, idx int) int { return boundary*ckptStride + idx }
func ckptMarker(boundary int) int    { return (boundary+1)*ckptStride - 1 }

// Env is everything a pipeline run borrows from its host: worker budget
// for reduce stages, the memo cache, the WAL and job identity for
// stage-boundary checkpoints, the metrics registry, a tracer, and the sink
// that receives each final record as it is produced (the NDJSON stream).
// Every field is optional except Emit-less runs simply discard records.
type Env struct {
	Workers int
	Cache   *memo.Cache
	Store   *store.JobStore
	JobID   string
	Metrics *Metrics
	Tracer  trace.Tracer
	// TraceMicros aligns this run's trace clock with the host's (e.g. the
	// daemon's µs-since-start); nil uses µs since Run began.
	TraceMicros func() int64
	Emit        func(Record)
	// Tenant is the submitting tenant's QoS identity; when set, stage
	// trace events carry it ("pipe:<stage>@<tenant>") so a merged timeline
	// can attribute per-stage work to tenants.
	Tenant string
}

// stageLabel is the trace label for one stage's events, tenant-qualified
// when the run carries a tenant identity.
func (e *exec) stageLabel(name string) string {
	if e.env.Tenant != "" {
		return "pipe:" + name + "@" + e.env.Tenant
	}
	return "pipe:" + name
}

// exec is one run's mutable state.
type exec struct {
	spec   *Spec
	env    *Env
	now    func() int64
	output []Record
	memoed atomic.Int64 // stage outputs published to the memo cache
}

// Run executes the pipeline described by spec (which must have passed
// Validate). It streams final records to env.Emit as they are produced,
// checkpoints each stage boundary in the WAL, publishes completed stage
// outputs to the memo cache under prefix digests, and — before running
// anything — probes both for the deepest already-completed stage so a
// restarted or repeated job resumes there instead of recomputing.
func Run(ctx context.Context, spec *Spec, env *Env) (*Result, error) {
	if env == nil {
		env = &Env{}
	}
	e := &exec{spec: spec, env: env}
	if env.TraceMicros != nil {
		e.now = env.TraceMicros
	} else {
		start := time.Now()
		e.now = func() int64 { return time.Since(start).Microseconds() }
	}

	nStages := len(spec.Stages)
	results := make([]*StageResult, nStages+1) // [0] = source, [1..] = spec stages
	results[0] = &StageResult{Name: "source"}
	for i := range spec.Stages {
		results[i+1] = &StageResult{Name: spec.Stages[i].Name}
	}

	// Resume probe: deepest completed boundary wins, WAL and memo both
	// consulted. A boundary restored from the WAL also counts the replayed
	// records as checkpoint hits in the store's metrics.
	boundary, restored, via := e.probeResume()
	if boundary >= 0 {
		results[0].Resumed = true // the source is never re-run on resume
		for b := 0; b <= boundary; b++ {
			results[b+1].Resumed = true
		}
		results[boundary+1].Out = len(restored)
		env.Metrics.noteResumed(boundary + 1)
		if via == "wal" && env.Store != nil {
			env.Store.NoteCheckpointHits(int64(len(restored)))
		}
		e.trace(trace.Event{Cycle: e.now(), Kind: trace.KindReplay, Proc: boundary + 1, From: -1,
			Arg: int64(len(restored)), Label: "pipe:resume:" + via})
	}

	res := &Result{ResumedStages: boundary + 1}
	if boundary == nStages-1 {
		// Every stage already completed before this run: replay the final
		// records straight to the sink.
		for _, rec := range restored {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if env.Emit != nil {
				env.Emit(rec)
			}
			e.output = append(e.output, rec)
		}
	} else {
		var stages []skel.StreamStage[Record]
		var live []*StageResult // the chain actually run, minus the sink
		if boundary >= 0 {
			// Playback stands in at the resumed boundary's position; it
			// gets its own accounting slot so the restored stage's result
			// (already fixed above) is not double-counted, and its record
			// flow is attributed to the source in the metrics registry.
			src := &StageResult{Name: "source"}
			stages = append(stages, e.instrument(boundary, src, nil, playback(restored)))
			live = append(live, src)
		} else if spec.Fasta != "" {
			stages = append(stages, e.instrument(-1, results[0], nil, sourceFasta(spec)))
			live = append(live, results[0])
		} else {
			stages = append(stages, e.instrument(-1, results[0], nil, sourceSynthetic(spec)))
			live = append(live, results[0])
		}
		for i := boundary + 1; i < nStages; i++ {
			st := &spec.Stages[i]
			stages = append(stages, e.instrument(i, results[i+1], st, buildBody(st, spec, env)))
			live = append(live, results[i+1])
		}
		stages = append(stages, e.sink())
		perr := skel.StreamPipeline(ctx, spec.Buffer, stages...)
		// Reconcile the queue-depth gauges: a cancelled or failed run
		// strands records in the bounded channels, and those must not
		// read as permanent depth. Every stage goroutine has exited by
		// now, so upstream Out minus downstream In is exactly what a
		// stage's inbox still held.
		for i := 1; i < len(live); i++ {
			if sm := env.Metrics.stage(live[i].Name); sm != nil {
				if d := live[i-1].Out - live[i].In; d > 0 {
					sm.queue.Add(int64(-d))
				}
			}
		}
		if perr != nil {
			return nil, perr
		}
	}

	res.Records = len(e.output)
	res.Output = e.output
	res.MemoStages = int(e.memoed.Load())
	for _, sr := range results {
		res.Stages = append(res.Stages, *sr)
	}
	env.Metrics.noteJob()
	env.Metrics.noteRecords(res.Records)
	return res, nil
}

// probeResume finds the deepest stage boundary whose full output is
// already durable: first in the WAL (complete marker plus every record),
// then under memo prefix digests. Returns -1 when nothing is restorable.
func (e *exec) probeResume() (int, []Record, string) {
	nStages := len(e.spec.Stages)
	if e.env.Store != nil && e.env.JobID != "" {
		if cps := e.env.Store.Checkpoints(e.env.JobID); len(cps) > 0 {
			for b := nStages - 1; b >= 0; b-- {
				raw, ok := cps[ckptMarker(b)]
				if !ok {
					continue
				}
				var count int
				if json.Unmarshal(raw, &count) != nil || count < 0 {
					continue
				}
				recs := make([]Record, 0, count)
				complete := true
				for idx := 0; idx < count; idx++ {
					blob, ok := cps[ckptNode(b, idx)]
					if !ok {
						complete = false
						break
					}
					var rec Record
					if json.Unmarshal(blob, &rec) != nil {
						complete = false
						break
					}
					recs = append(recs, rec)
				}
				if complete {
					return b, recs, "wal"
				}
			}
		}
	}
	if e.env.Cache != nil {
		for b := nStages - 1; b >= 0; b-- {
			v, ok := e.env.Cache.Get(prefixDigest(e.spec, b))
			if !ok {
				continue
			}
			blob, ok := v.(memo.Bytes)
			if !ok {
				continue
			}
			var recs []Record
			if json.Unmarshal(blob, &recs) != nil {
				continue
			}
			return b, recs, "memo"
		}
	}
	return -1, nil, ""
}

func (e *exec) trace(ev trace.Event) {
	if e.env.Tracer != nil {
		e.env.Tracer.Event(ev)
	}
}

// instrument wraps a stage body as a skel.StreamStage with the run's
// cross-cutting concerns: trace spans, per-stage metrics (counts, queue
// gauge, per-record latency, busy time), per-record WAL checkpoints, and
// the memo accumulator that publishes the stage's complete output.
// specIdx is the stage's index in spec.Stages, or -1 for the source and
// for playback (which stands in at the resumed boundary's position and
// must not re-checkpoint records that are already durable).
func (e *exec) instrument(specIdx int, sr *StageResult, st *StageSpec, body func(*stageIO) error) skel.StreamStage[Record] {
	proc := specIdx + 1 // source/playback at 0, spec stage i at i+1
	sm := e.env.Metrics.stage(sr.Name)
	var nextSM *stageMetrics
	if specIdx+1 < len(e.spec.Stages) {
		nextSM = e.env.Metrics.stage(e.spec.Stages[specIdx+1].Name)
	}
	checkpointing := st != nil && e.env.Store != nil && e.env.JobID != ""
	memoing := st != nil && e.env.Cache != nil
	var memoAccum []json.RawMessage
	memoBytes := 0

	return func(ctx context.Context, in <-chan Record, out chan<- Record) error {
		start := e.now()
		e.trace(trace.Event{Cycle: start, Kind: trace.KindExecStart, Proc: proc, From: -1, Label: e.stageLabel(sr.Name)})
		lastActivity := start

		io := &stageIO{
			ctx: ctx,
			recv: func() (Record, bool) {
				select {
				case rec, ok := <-in:
					if !ok {
						return Record{}, false
					}
					sr.In++
					if sm != nil {
						sm.in.Add(1)
						sm.queue.Add(-1)
					}
					lastActivity = e.now()
					return rec, true
				case <-ctx.Done():
					return Record{}, false
				}
			},
			emit: func(rec Record) bool {
				select {
				case out <- rec:
				case <-ctx.Done():
					return false
				}
				now := e.now()
				idx := sr.Out
				sr.Out++
				if sm != nil {
					sm.out.Add(1)
					sm.observeLatency(now - lastActivity)
				}
				if nextSM != nil {
					nextSM.queue.Add(1)
				}
				lastActivity = now
				e.trace(trace.Event{Cycle: now, Kind: trace.KindShip, Proc: proc + 1, From: proc,
					Arg: int64(idx), Label: e.stageLabel(sr.Name)})
				if checkpointing || memoing {
					blob, merr := json.Marshal(rec)
					if merr != nil {
						checkpointing, memoing, memoAccum = false, false, nil
						return true
					}
					if checkpointing {
						if idx >= ckptStride-1 {
							checkpointing = false
						} else {
							e.env.Store.Checkpoint(e.env.JobID, ckptNode(specIdx, idx), blob)
						}
					}
					if memoing {
						if memoBytes+len(blob) > memoPrefixCap {
							memoing, memoAccum = false, nil
						} else {
							memoAccum = append(memoAccum, blob)
							memoBytes += len(blob)
						}
					}
				}
				return true
			},
			drop: func() {
				sr.Dropped++
				if sm != nil {
					sm.dropped.Add(1)
				}
			},
		}

		err := body(io)
		if err == nil && ctx.Err() == nil && st != nil {
			// The stage saw its whole input and emitted its whole output:
			// seal the boundary for crash recovery and publish it for
			// prefix reuse.
			if checkpointing {
				if blob, merr := json.Marshal(sr.Out); merr == nil {
					e.env.Store.Checkpoint(e.env.JobID, ckptMarker(specIdx), blob)
				}
			}
			if memoing {
				if blob, merr := json.Marshal(memoAccum); merr == nil {
					e.env.Cache.Put(prefixDigest(e.spec, specIdx), memo.Bytes(blob))
					e.memoed.Add(1)
				}
			}
		}
		fin := e.now()
		if sm != nil {
			sm.busy.Add(fin - start)
		}
		e.trace(trace.Event{Cycle: fin, Kind: trace.KindExecFinish, Proc: proc, From: -1,
			Arg: fin - start, Label: e.stageLabel(sr.Name)})
		return err
	}
}

// sink drains the final stage, handing each record to the host's Emit (the
// NDJSON stream) and retaining the stream for the job's durable result.
func (e *exec) sink() skel.StreamStage[Record] {
	return func(ctx context.Context, in <-chan Record, out chan<- Record) error {
		for {
			select {
			case rec, ok := <-in:
				if !ok {
					return nil
				}
				if e.env.Emit != nil {
					e.env.Emit(rec)
				}
				e.output = append(e.output, rec)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}
