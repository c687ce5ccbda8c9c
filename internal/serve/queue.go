package serve

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/qos"
)

// ErrQueueFull is returned by Submit when admission refuses a job (a
// queue bound, a tenant's own bound under fair QoS, or motifctl's bound on
// live jobs); the HTTP layer maps it to 429 + Retry-After (load shedding).
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

// shedError carries the scheduler's drain-derived shed advice as an
// ErrQueueFull, so errors.Is checks keep working while the HTTP layer
// advises the refused tenant's actual drain time.
type shedError struct{ shed *qos.ShedError }

func (e *shedError) Error() string { return e.shed.Error() }
func (e *shedError) Unwrap() error { return ErrQueueFull }

// RetryAfter extracts the drain-derived Retry-After from a shed error,
// falling back to the legacy constant for errors without one.
func RetryAfter(err error) int {
	var se *shedError
	if errors.As(err, &se) {
		return se.shed.RetryAfterSeconds()
	}
	return RetryAfterSeconds
}
