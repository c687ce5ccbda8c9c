package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// outcomeKind classifies one placement attempt's result.
type outcomeKind int

const (
	// outcomeBound: the worker completed the job, or the job itself
	// failed (or its deadline passed) and retrying elsewhere cannot help.
	outcomeBound outcomeKind = iota
	// outcomeWorkerLost: the worker died or lost the job; retry on a
	// different worker (attempt consumed, worker excluded).
	outcomeWorkerLost
	// outcomeSaturated: the worker shed the job with 429; re-place after
	// its Retry-After window (no attempt consumed, worker not excluded).
	outcomeSaturated
)

type shipOutcome struct {
	kind  outcomeKind
	o     serve.Outcome // the job's outcome on outcomeBound
	msg   string
	floor time.Duration // saturation backoff floor (Retry-After)
}

// failure is the outcome of a job that failed with msg; failed ends a
// placement with it.
func failure(msg string) serve.Outcome { return serve.Outcome{State: serve.StateError, Err: msg} }
func failed(msg string) shipOutcome    { return shipOutcome{kind: outcomeBound, o: failure(msg)} }

// pollFailLimit is how many consecutive poll failures declare the worker
// lost even before its heartbeats expire — a killed process refuses
// connections immediately, so in-flight jobs re-place faster than the
// liveness window.
const pollFailLimit = 3

// remote is motifctl's executor, the placement loop: the Coordinator seen
// through the serve.Executor interface. Each dispatch loop owns one job at
// a time end to end.
type remote Coordinator

// Key is the request's content digest. Under label placement an unlabeled
// job is labeled with it, so identical jobs land on the same worker and
// warm its memo cache; the shipped body carries the label too (workers
// ignore it). With MemoCollapse, identical live submissions collapse onto
// one placement.
func (c *remote) Key(req *serve.JobRequest) (memo.Key, bool) {
	key, ok := serve.ContentKey(req)
	if ok && req.Label == "" && c.cfg.Policy.Name() == "label" {
		req.Label = key.Short()
	}
	return key, ok && c.cfg.MemoCollapse
}

// Cached finds nothing: results are cached on the workers.
func (c *remote) Cached(memo.Key) (serve.Results, bool) { return serve.Results{}, false }

// Fill keeps nothing.
func (c *remote) Fill(memo.Key, serve.Results) {}

// Job builds motifctl's job; a replayed one names the worker it was last
// placed on.
func (c *remote) Job(t *serve.Task[*Job], replayed *store.JobState) *Job {
	j := &Job{t: t, id: t.ID(), req: t.Request(), life: t.Life(), excluded: make(map[string]bool)}
	if replayed != nil {
		j.workerID = replayed.Worker
	}
	return j
}

// View is the job's cluster view.
func (c *remote) View(j *Job, full bool) any {
	v := j.View()
	if !full {
		v.Results = serve.Results{}
	}
	return v
}

// Run owns one accepted job end to end — place, ship, track, and re-place
// on failure until the job completes, its attempts are exhausted, or its
// deadline passes — and feeds the time it took to the drain estimate
// behind shed Retry-After advice. A job leaves for a worker only once its
// accepted record is durable. A journaled decision (e.g. a FirstOnly
// search's short-circuit winner, loaded during recovery) already fixes the
// job's outcome; completing from it means a restarted coordinator never
// re-places terminated work.
func (c *remote) Run(_ int, j *Job) {
	start := time.Now()
	<-j.t.Journaled()
	if j.life.Live() {
		o, ok := c.decided(j)
		if !ok {
			o = c.place(j)
		}
		c.host.Bind(j.t, o)
	}
	c.host.ObserveDone(j.req.Tenant, time.Since(start))
}

// place ships j to workers until it has an outcome.
func (c *remote) place(j *Job) serve.Outcome {
	// The request is shipped verbatim on each attempt.
	body, err := json.Marshal(j.req)
	if err != nil {
		return failure(err.Error())
	}
	ctx := j.t.Context()
	bo := NewBackoff(c.cfg.RetryBase, c.cfg.RetryMax, c.cfg.Seed^idSeed(j.id))
	for {
		select {
		case <-c.host.Stopped():
			return failure("coordinator shut down")
		default:
		}
		if ctx.Err() != nil {
			return failure("deadline exceeded before completion")
		}
		w, ok := c.pickWorker(j)
		if !ok {
			// No live, unexcluded, unsaturated worker right now: wait for
			// a heartbeat, a registration, or a 429 window to pass.
			c.sleep(bo.Next(0), ctx)
			continue
		}
		out := c.shipAndTrack(j, w, body)
		switch out.kind {
		case outcomeBound:
			return out.o
		case outcomeWorkerLost:
			// If the dead worker's last status carried a decision record,
			// the job's outcome is already committed: complete from it
			// instead of re-placing. The retry is a no-op — no attempt is
			// consumed and no other worker re-explores.
			if o, ok := c.decided(j); ok {
				return o
			}
			c.met.retries.Add(1)
			c.reg.noteRetried(w.ID)
			j.mu.Lock()
			j.excluded[w.ID] = true
			attempts := j.attempts
			j.mu.Unlock()
			if attempts >= c.cfg.MaxAttempts {
				return failure(fmt.Sprintf("gave up after %d placements (last worker %s: %s)",
					attempts, w.ID, out.msg))
			}
			c.sleep(bo.Next(0), ctx)
		case outcomeSaturated:
			// The Retry-After window belongs to the worker, not the job: mark
			// the worker saturated for that long and re-place immediately —
			// an idle worker can take the job now. Only when every live
			// worker is inside a window does the job wait (pickWorker comes
			// up empty and the loop backs off).
			c.met.saturated.Add(1)
			c.reg.markSaturated(w.ID, time.Now().Add(out.floor))
		}
	}
}

// pickWorker selects the next placement target: live workers the job has
// not been lost on, preferring ones outside a 429 backoff window. False
// means nothing is eligible right now and the caller should wait.
func (c *remote) pickWorker(j *Job) (WorkerView, bool) {
	live := c.reg.live(time.Now())
	if len(live) == 0 {
		return WorkerView{}, false
	}
	j.mu.Lock()
	eligible := make([]WorkerView, 0, len(live))
	for _, w := range live {
		if !j.excluded[w.ID] {
			eligible = append(eligible, w)
		}
	}
	if len(eligible) == 0 {
		// Every live worker has already lost this job once. A revived
		// worker beats a deadlocked job, so the exclusions reset; the
		// attempt bound still applies.
		for id := range j.excluded {
			delete(j.excluded, id)
		}
		eligible = live
	}
	j.mu.Unlock()
	unsaturated := make([]WorkerView, 0, len(eligible))
	for _, w := range eligible {
		if !w.Saturated {
			unsaturated = append(unsaturated, w)
		}
	}
	if len(unsaturated) == 0 {
		return WorkerView{}, false
	}
	return c.cfg.Policy.Pick(j.id, j.req.Label, unsaturated), true
}

// shipAndTrack performs one placement: POST the job to the worker, then
// poll it to a terminal state, re-classifying every failure into one of
// the outcome kinds above.
func (c *remote) shipAndTrack(j *Job, w WorkerView, body []byte) shipOutcome {
	c.reg.noteShipped(w.ID)
	c.host.Emit(trace.Event{Cycle: c.host.Micros(), Kind: trace.KindShip,
		Proc: w.Index, From: -1, Label: j.id + "→" + w.ID})

	// The calls are not bound to the host's lifetime: one in flight at
	// shutdown runs to its answer or to the client's timeout, and shutdown
	// is noticed between polls, so it never reads as a lost worker.
	wc := serve.NewClient[serve.JobStatus](w.Addr, c.http)
	remote, err := wc.Submit(context.Background(), body)
	if err != nil {
		var ae *serve.APIError
		switch {
		case !errors.As(err, &ae):
		case ae.Kind == serve.ErrShed:
			return shipOutcome{kind: outcomeSaturated, floor: ae.Floor}
		case ae.Kind == serve.ErrRejected:
			// The worker rejected a request the coordinator validated —
			// version skew. No other worker will accept it either.
			return failed("worker rejected job: " + ae.Msg)
		}
		c.consumeAttempt(j, w)
		return shipOutcome{kind: outcomeWorkerLost, msg: "submit: " + err.Error()}
	}
	c.consumeAttempt(j, w)
	if remote.ID == "" {
		return shipOutcome{kind: outcomeWorkerLost, msg: "submit: accept body without a job id"}
	}
	shippedAt := time.Now()
	j.life.Start()
	c.cfg.Store.Placed(j.id, w.ID)

	fails := 0
	for {
		select {
		case <-time.After(c.cfg.PollInterval):
		case <-c.host.Stopped():
			return failed("coordinator shut down")
		}
		if j.t.Context().Err() != nil {
			return failed("deadline exceeded before completion")
		}
		st, err := wc.Status(context.Background(), remote.ID)
		if err != nil {
			var ae *serve.APIError
			answered := errors.As(err, &ae) && ae.Status != 0
			if answered && ae.Kind == serve.ErrNotFound {
				// The worker restarted and lost its job history; the work
				// is gone with it.
				return shipOutcome{kind: outcomeWorkerLost, msg: "worker lost the job (restarted?)"}
			}
			fails++
			if fails >= pollFailLimit || (!answered && c.reg.isDead(w.ID)) {
				return shipOutcome{kind: outcomeWorkerLost, msg: "poll: " + err.Error()}
			}
			continue
		}
		fails = 0
		if st.Decision != nil {
			// The worker committed to an outcome mid-flight (e.g. a
			// FirstOnly search short-circuited and is inside its settle
			// window). Journal it coordinator-side now, so the outcome
			// survives even if this worker dies before reporting done.
			c.harvestDecision(j, st.Decision)
		}
		switch st.State {
		case serve.StateDone:
			c.reg.noteCompleted(w.ID)
			c.host.Emit(trace.Event{Cycle: c.host.Micros(), Kind: trace.KindDeliver,
				Proc: w.Index, From: -1,
				Arg: time.Since(shippedAt).Microseconds(), Label: j.id})
			return shipOutcome{kind: outcomeBound, o: serve.Outcome{State: serve.StateDone, Results: st.Results}}
		case serve.StateError:
			// A live worker reporting failure is deterministic — the job
			// itself is bad, and re-running it elsewhere would fail too.
			return failed("worker " + w.ID + ": " + st.Error)
		}
	}
}

// harvestDecision records a worker's mid-flight decision on the
// coordinator's side of the fence: once in memory (first reason wins) and
// once in the coordinator's own WAL, durable before the poll loop moves
// on. From then on the job can complete without the worker.
func (c *remote) harvestDecision(j *Job, note *serve.DecisionNote) {
	if !j.life.NoteDecision(note.Reason, note.Data) {
		return
	}
	c.cfg.Store.Decision(j.id, note.Reason, note.Data)
	c.met.decisionsHarvested.Add(1)
}

// decided is the outcome a job's harvested (or replayed) decision record
// fixes, when the record alone determines the result; counted before the
// outcome is visible, like every other side effect.
func (c *remote) decided(j *Job) (serve.Outcome, bool) {
	note := j.life.Snapshot().Decision
	if note == nil || j.req.Type != serve.JobSearch || note.Reason != jobs.ReasonShortCircuit {
		return serve.Outcome{}, false
	}
	res, err := jobs.SearchResultFromDecision(note.Reason, note.Data)
	if err != nil {
		// An undecodable record can't seed a result; fall back to normal
		// placement rather than wedging the job.
		return serve.Outcome{}, false
	}
	c.met.decisionCompletions.Add(1)
	return serve.Outcome{State: serve.StateDone, Results: serve.Results{Search: res}}, true
}

// consumeAttempt charges one placement against the job's attempt bound and
// records the target, so JobView shows where the job is (or last was).
func (c *remote) consumeAttempt(j *Job, w WorkerView) {
	j.mu.Lock()
	j.attempts++
	j.workerID = w.ID
	j.mu.Unlock()
}

// sleep waits for d, cut short by the job's deadline or coordinator
// shutdown (the loop re-checks both on wake).
func (c *remote) sleep(d time.Duration, ctx context.Context) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	case <-c.host.Stopped():
	}
}

// idSeed folds a job id into backoff-jitter seed material.
func idSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}
