package serve

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/qos"
)

// ErrQueueFull is returned by tryPush when admission refuses a job (the
// global bound, or the submitting tenant's own bound under fair QoS); the
// HTTP layer maps it to 429 + Retry-After (load shedding).
var ErrQueueFull = errors.New("serve: admission queue full")

// RetryAfterSeconds is the fallback Retry-After hint for 429s whose cause
// carries no drain estimate: one second is the order of an admission-queue
// drain at typical job sizes. Sheds from the admission scheduler instead
// advise the refused tenant's estimated drain time (queue depth × observed
// service rate) via retryAfterSeconds; this constant remains the floor the
// cluster re-placement path assumes when a saturated worker omits or
// mangles the header.
const RetryAfterSeconds = 1

// RetryAfterFloor turns a Retry-After header value into the backoff floor
// it demands, defaulting to RetryAfterSeconds when the header is absent or
// not an integer (the HTTP-date form is not worth supporting here). The
// Client reads every 429 and 503 through it.
func RetryAfterFloor(header string) time.Duration {
	if s, err := strconv.Atoi(header); err == nil && s >= 0 {
		return time.Duration(s) * time.Second
	}
	return RetryAfterSeconds * time.Second
}

// ErrDraining is returned once the server has begun graceful shutdown; the
// HTTP layer maps it to 503.
var ErrDraining = errors.New("serve: server draining")

// queue is the bounded admission layer between the HTTP front end and the
// worker pool, backed by the tenant-aware qos.Scheduler: in fair mode
// tenants get weighted-fair service with per-tenant bounds and class
// preemption; in flat mode it reproduces the original single-FIFO
// semantics. Either way its capacity is the system's only buffer — when a
// bound is hit, work is shed instead of growing memory without bound.
type queue struct {
	sched *qos.Scheduler
}

func newQueue(opt qos.Options) *queue {
	return &queue{sched: qos.New(opt)}
}

// shedError carries the scheduler's drain-derived shed advice under a
// sentinel identity (ErrQueueFull here, motifctl's ErrBusy one level up),
// so errors.Is checks keep working while the HTTP layer advises the
// refused tenant's actual drain time.
type shedError struct {
	shed *qos.ShedError
	is   error
}

func (e *shedError) Error() string { return e.shed.Error() }
func (e *shedError) Unwrap() error { return e.is }

// Shed wraps a scheduler refusal under the sentinel is.
func Shed(shed *qos.ShedError, is error) error { return &shedError{shed: shed, is: is} }

// RetryAfter extracts the drain-derived Retry-After from a shed error,
// falling back to the legacy constant for errors without one.
func RetryAfter(err error) int {
	var se *shedError
	if errors.As(err, &se) {
		return se.shed.RetryAfterSeconds()
	}
	return RetryAfterSeconds
}

// tryPush admits j without blocking. A non-nil victim is a queued
// lower-class job the scheduler evicted to make room (the caller owns
// failing it back to its client); an ErrQueueFull-wrapping error means j
// itself was shed, ErrDraining that the server is shutting down.
func (q *queue) tryPush(j *Job) (victim *Job, err error) {
	v, err := q.sched.Push(j, j.req.Tenant, j.req.qosClass())
	if err != nil {
		var shed *qos.ShedError
		if errors.As(err, &shed) {
			return nil, Shed(shed, ErrQueueFull)
		}
		if errors.Is(err, qos.ErrClosed) {
			return nil, ErrDraining
		}
		return nil, err
	}
	if v != nil {
		return v.(*Job), nil
	}
	return nil, nil
}

// pushResumed re-admits a crash-recovered job above every bound: the job
// was already accepted and journaled once, so shedding it on restart would
// break the durability contract.
func (q *queue) pushResumed(j *Job) {
	_ = q.sched.PushForce(j, j.req.Tenant, j.req.qosClass())
}

// pop returns the next job in scheduling order. Blocking, ok == false
// means the queue is closed and drained — the workers' exit signal; not
// blocking (the batcher's drain), that nothing is queued right now.
func (q *queue) pop(block bool) (*Job, bool) {
	v, ok := q.sched.Pop(block)
	if !ok {
		return nil, false
	}
	return v.(*Job), true
}
