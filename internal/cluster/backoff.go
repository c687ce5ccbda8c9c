package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff yields jittered exponential delays for retry loops: attempt n
// sleeps roughly Base·2ⁿ, uniformly jittered over [½d, 1½d) and capped at
// Max. A per-call floor (e.g. a server's Retry-After hint) is always
// honored: the returned delay is never below it. The jitter decorrelates
// retriers — when a worker dies or sheds, the jobs re-placing off it do
// not stampede the survivors in lockstep.
//
// Backoff is safe for concurrent use, though callers typically keep one
// per retry loop.
type Backoff struct {
	// Base is the first delay (default 50ms); Max caps growth (default 2s).
	Base, Max time.Duration

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// NewBackoff builds a backoff with deterministic jitter from seed.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	return &Backoff{Base: base, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay, at least floor. Pass floor 0 when there is
// no server hint.
func (b *Backoff) Next(floor time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.Base << b.attempt
	if d > b.Max || d <= 0 { // <=0 guards shift overflow
		d = b.Max
	} else {
		b.attempt++
	}
	d = d/2 + time.Duration(b.rng.Int63n(int64(d)))
	if d < floor {
		// Honor Retry-After exactly as a minimum, plus a little spread so
		// simultaneous 429s don't return simultaneously.
		d = floor + time.Duration(b.rng.Int63n(int64(floor/4+1)))
	}
	return d
}

// Reset rewinds the exponential sequence after a success.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}
