package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// outcomeKind classifies one placement attempt's result.
type outcomeKind int

const (
	// outcomeDone: the worker completed the job.
	outcomeDone outcomeKind = iota
	// outcomeTerminal: the job itself failed (or its deadline passed);
	// retrying elsewhere cannot help.
	outcomeTerminal
	// outcomeWorkerLost: the worker died or lost the job; retry on a
	// different worker (attempt consumed, worker excluded).
	outcomeWorkerLost
	// outcomeSaturated: the worker shed the job with 429; re-place after
	// its Retry-After window (no attempt consumed, worker not excluded).
	outcomeSaturated
)

type shipOutcome struct {
	kind   outcomeKind
	msg    string
	floor  time.Duration    // saturation backoff floor (Retry-After)
	result *serve.JobStatus // terminal worker status on outcomeDone
}

// pollFailLimit is how many consecutive poll failures declare the worker
// lost even before its heartbeats expire — a killed process refuses
// connections immediately, so in-flight jobs re-place faster than the
// liveness window.
const pollFailLimit = 3

// run owns one accepted job end to end: place, ship, track, and re-place
// on failure until the job completes, its attempts are exhausted, or its
// deadline passes. One goroutine per pending job; the pending bound caps
// them.
func (c *Coordinator) run(j *Job) {
	defer c.jobsWG.Done()
	defer c.pending.Add(-1)
	// A journaled decision (e.g. a FirstOnly search's short-circuit winner,
	// loaded during recovery) already fixes the job's outcome; completing
	// from it here means a restarted coordinator never re-places terminated
	// work.
	if c.completeFromDecision(j) {
		return
	}
	bo := NewBackoff(c.cfg.RetryBase, c.cfg.RetryMax, c.cfg.Seed^idSeed(j.id))
	for {
		if c.ctx.Err() != nil {
			c.fail(j, "coordinator shut down")
			return
		}
		if time.Now().After(j.deadline) {
			c.fail(j, "deadline exceeded before completion")
			return
		}
		w, ok := c.pickWorker(j)
		if !ok {
			// No live, unexcluded, unsaturated worker right now: wait for
			// a heartbeat, a registration, or a 429 window to pass.
			c.sleep(bo.Next(0), j)
			continue
		}
		out := c.shipAndTrack(j, w)
		switch out.kind {
		case outcomeDone:
			c.finish(j, out.result.Results)
			return
		case outcomeTerminal:
			c.fail(j, out.msg)
			return
		case outcomeWorkerLost:
			// If the dead worker's last status carried a decision record,
			// the job's outcome is already committed: complete from it
			// instead of re-placing. The retry is a no-op — no attempt is
			// consumed and no other worker re-explores.
			if c.completeFromDecision(j) {
				return
			}
			c.met.retries.Add(1)
			c.reg.noteRetried(w.ID)
			j.mu.Lock()
			j.excluded[w.ID] = true
			attempts := j.attempts
			j.mu.Unlock()
			if attempts >= c.cfg.MaxAttempts {
				c.fail(j, fmt.Sprintf("gave up after %d placements (last worker %s: %s)",
					attempts, w.ID, out.msg))
				return
			}
			c.sleep(bo.Next(0), j)
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
func (c *Coordinator) pickWorker(j *Job) (WorkerView, bool) {
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
func (c *Coordinator) shipAndTrack(j *Job, w WorkerView) shipOutcome {
	c.reg.noteShipped(w.ID)
	c.emit(trace.Event{Cycle: c.met.sinceMicros(), Kind: trace.KindShip,
		Proc: w.Index, From: -1, Label: j.id + "→" + w.ID})

	resp, err := c.cfg.Client.Post(w.Addr+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		c.consumeAttempt(j, w)
		return shipOutcome{kind: outcomeWorkerLost, msg: "submit: " + err.Error()}
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		// Fall through to tracking.
	case http.StatusTooManyRequests:
		floor := retryAfterOf(resp)
		drainBody(resp)
		return shipOutcome{kind: outcomeSaturated, floor: floor}
	case http.StatusBadRequest:
		// The worker rejected a request the coordinator validated —
		// version skew. No other worker will accept it either.
		msg := errorBody(resp)
		return shipOutcome{kind: outcomeTerminal, msg: "worker rejected job: " + msg}
	default:
		msg := fmt.Sprintf("submit: worker returned %d", resp.StatusCode)
		drainBody(resp)
		c.consumeAttempt(j, w)
		return shipOutcome{kind: outcomeWorkerLost, msg: msg}
	}

	var remote serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&remote)
	resp.Body.Close()
	if err != nil || remote.ID == "" {
		c.consumeAttempt(j, w)
		return shipOutcome{kind: outcomeWorkerLost, msg: fmt.Sprintf("submit: bad accept body (%v)", err)}
	}
	c.consumeAttempt(j, w)
	shippedAt := time.Now()
	j.life.Start()
	c.cfg.Store.Placed(j.id, w.ID)

	fails := 0
	for {
		select {
		case <-time.After(c.cfg.PollInterval):
		case <-c.ctx.Done():
			return shipOutcome{kind: outcomeTerminal, msg: "coordinator shut down"}
		}
		if time.Now().After(j.deadline) {
			return shipOutcome{kind: outcomeTerminal, msg: "deadline exceeded before completion"}
		}
		resp, err := c.cfg.Client.Get(w.Addr + "/v1/jobs/" + remote.ID)
		if err != nil {
			fails++
			if fails >= pollFailLimit || c.reg.isDead(w.ID) {
				return shipOutcome{kind: outcomeWorkerLost, msg: "poll: " + err.Error()}
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			drainBody(resp)
			// The worker restarted and lost its job history; the work is
			// gone with it.
			return shipOutcome{kind: outcomeWorkerLost, msg: "worker lost the job (restarted?)"}
		}
		if resp.StatusCode != http.StatusOK {
			drainBody(resp)
			fails++
			if fails >= pollFailLimit {
				return shipOutcome{kind: outcomeWorkerLost,
					msg: fmt.Sprintf("poll: worker returned %d", resp.StatusCode)}
			}
			continue
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			fails++
			if fails >= pollFailLimit {
				return shipOutcome{kind: outcomeWorkerLost, msg: "poll: bad status body: " + err.Error()}
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
			c.emit(trace.Event{Cycle: c.met.sinceMicros(), Kind: trace.KindDeliver,
				Proc: w.Index, From: -1,
				Arg: time.Since(shippedAt).Microseconds(), Label: j.id})
			return shipOutcome{kind: outcomeDone, result: &st}
		case serve.StateError:
			// A live worker reporting failure is deterministic — the job
			// itself is bad, and re-running it elsewhere would fail too.
			return shipOutcome{kind: outcomeTerminal, msg: "worker " + w.ID + ": " + st.Error}
		}
	}
}

// harvestDecision records a worker's mid-flight decision on the
// coordinator's side of the fence: once in memory (first reason wins) and
// once in the coordinator's own WAL, durable before the poll loop moves
// on. From then on the job can complete without the worker.
func (c *Coordinator) harvestDecision(j *Job, note *serve.DecisionNote) {
	if !j.life.NoteDecision(note.Reason, note.Data) {
		return
	}
	c.cfg.Store.Decision(j.id, note.Reason, note.Data)
	c.met.decisionsHarvested.Add(1)
}

// completeFromDecision finishes a job directly from its harvested (or
// replayed) decision record, when the record alone determines the result.
// True means the job is terminal and the placement loop must stop.
func (c *Coordinator) completeFromDecision(j *Job) bool {
	note := j.life.Snapshot().Decision
	if note == nil || j.req.Type != serve.JobSearch || note.Reason != jobs.ReasonShortCircuit {
		return false
	}
	res, err := jobs.SearchResultFromDecision(note.Reason, note.Data)
	if err != nil {
		// An undecodable record can't seed a result; fall back to normal
		// placement rather than wedging the job.
		return false
	}
	c.finish(j, serve.Results{Search: res})
	c.met.decisionCompletions.Add(1)
	return true
}

// consumeAttempt charges one placement against the job's attempt bound and
// records the target, so JobView shows where the job is (or last was).
func (c *Coordinator) consumeAttempt(j *Job, w WorkerView) {
	j.mu.Lock()
	j.attempts++
	j.workerID = w.ID
	j.workerIndex = w.Index
	j.mu.Unlock()
}

// finish binds terminal success.
func (c *Coordinator) finish(j *Job, res serve.Results) {
	c.met.done.Add(1)
	c.met.observeLatency(time.Since(j.life.Submitted()))
	c.bind(j, serve.Outcome{State: serve.StateDone, Results: res})
}

// fail binds terminal failure.
func (c *Coordinator) fail(j *Job, msg string) {
	c.met.failed.Add(1)
	c.bind(j, serve.Outcome{State: serve.StateError, Err: msg})
}

// bind binds j's outcome after the coordinator's side effects: the
// ledger's content key is released, then the terminal record is appended
// and applied; its fsync wait runs once the outcome is visible. A failure
// while the coordinator itself is going down is not journaled: the job
// stays incomplete in the log, so the next start re-places it like any
// other crash orphan. Only the job's own run loop binds it once queued, so
// ErrBound cannot occur.
func (c *Coordinator) bind(j *Job, o serve.Outcome) {
	_ = j.life.Bind(o, func(o serve.Outcome) func() {
		c.mu.Lock()
		c.ledger.ReleaseContent(j.id)
		c.mu.Unlock()
		switch {
		case c.cfg.Store == nil:
		case o.State != serve.StateDone:
			if c.ctx.Err() == nil {
				return c.cfg.Store.Finish(j.id, nil, o.Err)
			}
		default:
			// The done record is the job's final status: what replay
			// restores and answers polls with.
			st := serve.JobStatus{ID: j.id, Type: j.req.Type, State: o.State, Results: o.Results}
			if data, err := json.Marshal(st); err == nil {
				return c.cfg.Store.Finish(j.id, data, "")
			}
		}
		return nil
	})
}

// sleep waits for d, cut short by coordinator shutdown and never past the
// job's deadline (the loop re-checks both on wake).
func (c *Coordinator) sleep(d time.Duration, j *Job) {
	if rem := time.Until(j.deadline); d > rem {
		d = rem
	}
	if d <= 0 {
		return
	}
	select {
	case <-time.After(d):
	case <-c.ctx.Done():
	}
}

// retryAfterOf extracts a 429's Retry-After backoff floor.
func retryAfterOf(resp *http.Response) time.Duration {
	return RetryAfterFloor(resp.Header.Get("Retry-After"))
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// errorBody extracts {"error": ...} from a response, falling back to the
// status code.
func errorBody(resp *http.Response) string {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}

// idSeed folds a job id into backoff-jitter seed material.
func idSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}
