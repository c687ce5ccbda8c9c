package serve

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
)

// ErrBound is what a second Bind returns: a job's outcome is bound once.
var ErrBound = errors.New("serve: job outcome already bound")

// Outcome is a job's terminal value: a terminal state, the result block of a
// done job, the message of any other.
type Outcome struct {
	State   State
	Results Results
	Err     string
}

// Lifecycle is one job's queued → running → terminal record, shared by
// motifd's Job, motifctl's Job and the WAL replay that rebuilds both. The
// terminal Outcome is single-assignment, like a Strand variable (PAPER.md
// §2.1): Bind binds it once, after the job's terminal side effects, and
// every reader of Done suspends until it is bound.
type Lifecycle struct {
	submitted time.Time

	mu       sync.Mutex
	state    State
	binding  bool // a Bind claimed the outcome; later Binds and Starts fail
	started  time.Time
	finished time.Time
	out      Outcome
	decision *DecisionNote
	done     chan struct{}
}

// NewLifecycle returns a queued lifecycle submitted at the given time.
func NewLifecycle(submitted time.Time) *Lifecycle {
	return &Lifecycle{submitted: submitted, state: StateQueued, done: make(chan struct{})}
}

// Start moves the job to running — again on each re-placement of a cluster
// job — and reports whether it may run: false once a Bind has claimed it.
func (l *Lifecycle) Start() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.binding {
		return false
	}
	l.state, l.started = StateRunning, time.Now()
	return true
}

// Bind binds the job's outcome. settle, the daemon's terminal side effects
// (fill the memo, release the ledger's content key, append the terminal
// WAL record and apply it to the store), runs first; then the outcome is
// published and Done closes; then the function settle returned runs (the
// record's fsync wait, a stream's EOF), so no fsync sits between a finished
// job and its visible state. A second Bind returns ErrBound and runs
// nothing.
func (l *Lifecycle) Bind(o Outcome, settle func(Outcome) (after func())) error {
	l.mu.Lock()
	if l.binding {
		l.mu.Unlock()
		return ErrBound
	}
	l.binding, l.finished = true, time.Now()
	l.mu.Unlock()
	var after func()
	if settle != nil {
		after = settle(o)
	}
	l.mu.Lock()
	l.state, l.out = o.State, o
	close(l.done)
	l.mu.Unlock()
	if after != nil {
		after()
	}
	return nil
}

// NoteDecision records a mid-flight commitment (e.g. a FirstOnly search's
// shortcircuit winner) and reports whether it was the first: later notes
// are dropped, so the journaled decision is the one the status shows.
func (l *Lifecycle) NoteDecision(reason string, data []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.decision != nil {
		return false
	}
	l.decision = &DecisionNote{Reason: reason, Data: append(json.RawMessage(nil), data...)}
	return true
}

// Done is closed once the outcome is visible.
func (l *Lifecycle) Done() <-chan struct{} { return l.done }

// Submitted is when the job was accepted.
func (l *Lifecycle) Submitted() time.Time { return l.submitted }

// Live reports whether no outcome is visible yet.
func (l *Lifecycle) Live() bool {
	st := l.State()
	return st == StateQueued || st == StateRunning
}

// State is the job's visible lifecycle position.
func (l *Lifecycle) State() State { return l.Snapshot().State }

// Results is the bound result block; empty until the job is done.
func (l *Lifecycle) Results() Results { return l.Snapshot().Results }

// Snapshot is one consistent read of a lifecycle.
type Snapshot struct {
	State    State
	Err      string
	Results  Results
	Decision *DecisionNote
	// QueueMillis is submission→start (or →now while queued); RunMillis is
	// start→finish (or →now while running).
	QueueMillis, RunMillis float64
}

// Snapshot reads the lifecycle.
func (l *Lifecycle) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{State: l.state, Err: l.out.Err, Results: l.out.Results, Decision: l.decision}
	now := time.Now()
	switch {
	case l.state == StateQueued:
		s.QueueMillis = ms(now.Sub(l.submitted))
	case l.state == StateRunning:
		s.QueueMillis = ms(l.started.Sub(l.submitted))
		s.RunMillis = ms(now.Sub(l.started))
	case l.started.IsZero():
		s.QueueMillis = ms(l.finished.Sub(l.submitted))
	default:
		s.QueueMillis = ms(l.started.Sub(l.submitted))
		s.RunMillis = ms(l.finished.Sub(l.started))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Replay rebuilds one journaled job after a restart — its request and its
// lifecycle — for motifd and motifctl alike, so "a terminal status is
// final" reads the same for replay as for a live Bind. A done or failed
// record binds the lifecycle with no side effects (they ran before the
// crash). Any other status leaves it queued, carrying the shortcircuit
// decision the old process journaled, unless the request no longer decodes
// (e.g. written by a newer build): that job is bound failed, and journaled
// so, rather than replayed forever. A done record whose result no longer
// decodes binds failed too, in memory only: its record stays final.
func Replay(st *store.JobStore, js store.JobState) (JobRequest, *Lifecycle) {
	l := NewLifecycle(time.Now())
	var req JobRequest
	bad := json.Unmarshal(js.Request, &req) != nil || req.Validate() != nil
	var o Outcome
	var settle func(Outcome) func()
	switch {
	case js.Status == store.StatusDone:
		// The done record is the job's final status; its result block is
		// the job's, and one that no longer decodes is no answer.
		var fin JobStatus
		if json.Unmarshal(js.Result, &fin) != nil {
			o = Outcome{State: StateError, Err: "unrecoverable journaled result"}
			break
		}
		if fin.Type != "" {
			req.Type = fin.Type
		}
		o = Outcome{State: StateDone, Results: fin.Results}
	case js.Status == store.StatusFailed:
		o = Outcome{State: StateError, Err: js.Error}
	case bad:
		o = Outcome{State: StateError, Err: "unrecoverable journaled request"}
		settle = func(o Outcome) func() { return st.Finish(js.ID, nil, o.Err) }
	default:
		if raw, ok := st.Decisions(js.ID)[jobs.ReasonShortCircuit]; ok {
			l.NoteDecision(jobs.ReasonShortCircuit, raw)
		}
		return req, l
	}
	_ = l.Bind(o, settle) // a fresh lifecycle: the first Bind
	return req, l
}
