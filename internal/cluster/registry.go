package cluster

import (
	"sort"
	"sync"
	"time"
)

// workerState is the coordinator's record of one registered worker: its
// /metrics row, kept current by registration, heartbeats and placements.
type workerState struct {
	row WorkerMetrics

	// lastBeat is the most recent registration or heartbeat; dead is set
	// by the expiry sweep and cleared by re-registration.
	lastBeat time.Time
	dead     bool

	// saturatedUntil is the end of the backoff window opened by a 429
	// from this worker.
	saturatedUntil time.Time
}

// registry tracks registered workers and their liveness. All methods are
// safe for concurrent use.
type registry struct {
	mu        sync.Mutex
	expiry    time.Duration
	clock     func() int64 // the coordinator's trace clock, µs since start
	workers   map[string]*workerState
	nextIndex int
}

func newRegistry(expiry time.Duration, clock func() int64) *registry {
	return &registry{expiry: expiry, clock: clock, workers: make(map[string]*workerState)}
}

// register adds or refreshes a worker, preserving the index (and so the
// trace lane) of a worker that re-registers under its old ID.
func (r *registry) register(info WorkerInfo, now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws, ok := r.workers[info.ID]
	if !ok {
		ws = &workerState{row: WorkerMetrics{ID: info.ID, Index: r.nextIndex}}
		r.nextIndex++
		r.workers[info.ID] = ws
	}
	ws.row.Addr, ws.row.PoolWorkers = info.Addr, info.Workers
	ws.lastBeat = now
	ws.dead = false
	ws.saturatedUntil = time.Time{}
	return ws.row.Index
}

// heartbeat records a load report; false means the worker is unknown (the
// coordinator restarted) and must re-register.
func (r *registry) heartbeat(hb Heartbeat, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws, ok := r.workers[hb.ID]
	if !ok {
		return false
	}
	ws.lastBeat = now
	ws.dead = false
	m := &ws.row
	m.QueueDepth, m.Inflight, m.Done, m.Failed = hb.QueueDepth, hb.Inflight, hb.Done, hb.Failed
	m.MemoHits, m.MemoMisses, m.MemoRemoteHits = hb.MemoHits, hb.MemoMisses, hb.MemoRemoteHits
	m.Tenants = hb.Tenants
	m.clockOffset = r.clock() - hb.UptimeMicros
	return true
}

// sweep marks workers whose last beat is older than the expiry window as
// dead and returns the IDs that died in this sweep.
func (r *registry) sweep(now time.Time) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var died []string
	for id, ws := range r.workers {
		if !ws.dead && now.Sub(ws.lastBeat) > r.expiry {
			ws.dead = true
			died = append(died, id)
		}
	}
	sort.Strings(died)
	return died
}

// live snapshots the placement view of every live worker, ordered by
// index.
func (r *registry) live(now time.Time) []WorkerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []WorkerView
	for id, ws := range r.workers {
		if ws.dead {
			continue
		}
		out = append(out, WorkerView{
			ID:        id,
			Index:     ws.row.Index,
			Addr:      ws.row.Addr,
			Load:      ws.row.QueueDepth + int(ws.row.Inflight),
			Saturated: now.Before(ws.saturatedUntil),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// isDead reports whether the worker is currently marked dead (or unknown).
func (r *registry) isDead(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws, ok := r.workers[id]
	return !ok || ws.dead
}

// markSaturated opens a 429 backoff window for the worker.
func (r *registry) markSaturated(id string, until time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ws, ok := r.workers[id]; ok && until.After(ws.saturatedUntil) {
		ws.saturatedUntil = until
	}
}

// note* bump the coordinator-side shipping counters.
func (r *registry) noteShipped(id string)   { r.bump(id, func(m *WorkerMetrics) { m.Shipped++ }) }
func (r *registry) noteCompleted(id string) { r.bump(id, func(m *WorkerMetrics) { m.Completed++ }) }
func (r *registry) noteRetried(id string)   { r.bump(id, func(m *WorkerMetrics) { m.Retried++ }) }

func (r *registry) bump(id string, f func(*WorkerMetrics)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ws, ok := r.workers[id]; ok {
		f(&ws.row)
	}
}

// snapshot returns the metrics view of every worker, ordered by index.
func (r *registry) snapshot(now time.Time) []WorkerMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerMetrics, 0, len(r.workers))
	for _, ws := range r.workers {
		m := ws.row
		m.Live = !ws.dead
		m.LastBeatAgeMS = float64(now.Sub(ws.lastBeat).Microseconds()) / 1000
		m.Saturated = now.Before(ws.saturatedUntil)
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
