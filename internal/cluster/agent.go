package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
)

// fillWindow bounds the digests a worker accumulates for its heartbeat
// recent-fills summaries: the cache-side tracking window and the resend
// buffer held across unreachable-coordinator gaps. 256 full digests are
// ~17KB of JSON, comfortably inside the coordinator's 64KB heartbeat body
// bound.
const fillWindow = 256

// hbFailLimit is how many consecutive undeliverable heartbeats the agent
// tolerates before declaring the coordinator lost and failing over to the
// next configured URL. At the default 500ms cadence this is ~3s of
// silence — past the coordinator's own 4-interval liveness window, so by
// the time the agent moves on, the coordinator (if alive) has already
// written the worker off too.
const hbFailLimit = 6

// AgentConfig configures a worker's cluster membership.
type AgentConfig struct {
	// CoordinatorURL is the coordinator's base URL.
	CoordinatorURL string
	// StandbyURLs are additional coordinator URLs (standbys) tried in
	// order when the current coordinator stays unreachable for
	// hbFailLimit consecutive heartbeats. The agent rotates through
	// CoordinatorURL + StandbyURLs until one accepts its registration —
	// the worker-side half of coordinator failover.
	StandbyURLs []string
	// ID names this worker (default "host-pid").
	ID string
	// Addr is the base URL under which the coordinator can reach this
	// worker's serving API. Required.
	Addr string
	// Server is the local serving layer whose metrics feed the heartbeat
	// load reports. Required.
	Server *serve.Server
	// PoolWorkers/QueueCap describe the local pool for registration.
	PoolWorkers int
	QueueCap    int
	// Interval is the heartbeat cadence (default DefaultHeartbeatInterval).
	Interval time.Duration
	// Seed drives the registration/heartbeat retry jitter; 0 falls back to
	// the process id. The worker id is mixed in so co-seeded workers still
	// jitter apart.
	Seed int64
	// Logf, if non-nil, receives membership events (registered, lost
	// coordinator, re-registered).
	Logf func(format string, args ...any)
}

// Agent maintains a worker's cluster membership: it registers with the
// coordinator, then heartbeats load reports at the agreed interval,
// re-registering whenever the coordinator forgets it (restart) and
// retrying with jittered backoff whenever it is unreachable. The job flow
// itself needs no agent involvement — the coordinator ships jobs straight
// to the worker's ordinary serving API.
type Agent struct {
	cfg  AgentConfig
	http *http.Client // talks to the coordinator
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	urls   []string // CoordinatorURL + StandbyURLs
	active int      // index of the coordinator currently registered with

	// pendingFills buffers drained recent-fill digests across undeliverable
	// heartbeats so index updates survive a coordinator blip or failover.
	pendingFills []string
}

// StartAgent validates the config and starts the membership loop.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.CoordinatorURL == "" {
		return nil, fmt.Errorf("cluster: agent needs a coordinator URL")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("cluster: agent needs an advertised address")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: agent needs the local serve.Server")
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	urls := append([]string{cfg.CoordinatorURL}, cfg.StandbyURLs...)
	// The fills window feeds heartbeat digest summaries; enabling it on a
	// nil cache (memoization off) is a no-op.
	cfg.Server.MemoCache().TrackFills(fillWindow)
	a := &Agent{cfg: cfg, http: &http.Client{Timeout: 5 * time.Second}, done: make(chan struct{}), urls: urls}
	a.wg.Add(1)
	go a.loop()
	return a, nil
}

// ID returns the worker id the agent registered under.
func (a *Agent) ID() string { return a.cfg.ID }

// CoordinatorURL returns the coordinator the agent currently considers
// active — after a failover this is the standby it re-registered with.
// The memoshare fetcher reads it per lookup so peer-location queries
// follow the agent across coordinator failures.
func (a *Agent) CoordinatorURL() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.urls[a.active]
}

// rotate advances to the next configured coordinator URL.
func (a *Agent) rotate() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.urls) > 1 {
		a.active = (a.active + 1) % len(a.urls)
	}
}

// Stop ends the membership loop. The coordinator notices the silence via
// heartbeat expiry; there is deliberately no unregister call — a worker
// that can say goodbye is indistinguishable from one that cannot, so the
// cluster only trusts the expiry path.
func (a *Agent) Stop() {
	select {
	case <-a.done:
	default:
		close(a.done)
	}
	a.wg.Wait()
}

func (a *Agent) loop() {
	defer a.wg.Done()
	seed := a.cfg.Seed
	if seed == 0 {
		seed = int64(os.Getpid())
	}
	bo := NewBackoff(200*time.Millisecond, 5*time.Second, seed^idSeed(a.cfg.ID))
	for {
		if !a.register(bo) {
			return // stopped before registration succeeded
		}
		bo.Reset()
		if !a.heartbeats() {
			return // stopped
		}
		// heartbeats returned because the coordinator forgot us; loop to
		// re-register.
		a.cfg.Logf("cluster: coordinator forgot %s; re-registering", a.cfg.ID)
	}
}

// register POSTs the registration until it succeeds; false means the agent
// was stopped first.
func (a *Agent) register(bo *Backoff) bool {
	info := WorkerInfo{
		ID:       a.cfg.ID,
		Addr:     a.cfg.Addr,
		Workers:  a.cfg.PoolWorkers,
		QueueCap: a.cfg.QueueCap,
	}
	body, _ := json.Marshal(info)
	for {
		target := a.CoordinatorURL()
		resp, err := a.http.Post(target+"/cluster/v1/register",
			"application/json", bytes.NewReader(body))
		if err == nil {
			var reg RegisterResponse
			decErr := json.NewDecoder(resp.Body).Decode(&reg)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && decErr == nil {
				if ms := reg.HeartbeatMillis; ms > 0 {
					// The coordinator's interval wins: liveness windows are
					// its contract to enforce.
					a.cfg.Interval = time.Duration(ms) * time.Millisecond
				}
				a.cfg.Logf("cluster: registered %s (lane %d) with %s, heartbeat %s",
					a.cfg.ID, reg.Index, target, a.cfg.Interval)
				return true
			}
		} else {
			a.cfg.Logf("cluster: register with %s: %v", target, err)
		}
		// A refused registration (standby not yet active, coordinator down)
		// moves on to the next configured URL after the backoff — with one
		// URL this just retries it.
		a.rotate()
		select {
		case <-time.After(bo.Next(0)):
		case <-a.done:
			return false
		}
	}
}

// heartbeats reports load until stopped (false) or until the registration
// must be redone (true): the coordinator answered 404 (it restarted and
// forgot us) or stayed unreachable for hbFailLimit beats (it died — rotate
// to the next configured coordinator and register there).
func (a *Agent) heartbeats() bool {
	tick := time.NewTicker(a.cfg.Interval)
	defer tick.Stop()
	fails := 0
	for {
		select {
		case <-tick.C:
		case <-a.done:
			return false
		}
		m := a.cfg.Server.Metrics()
		hb := Heartbeat{
			ID:           a.cfg.ID,
			QueueDepth:   m.QueueDepth,
			Inflight:     m.Inflight,
			Done:         m.Done,
			Failed:       m.Failed,
			UptimeMicros: int64(m.UptimeMS * 1000),
		}
		if m.Memo != nil {
			hb.MemoHits = m.Memo.Hits
			hb.MemoMisses = m.Memo.Misses
		}
		if m.Memoshare != nil {
			hb.MemoRemoteHits = m.Memoshare.PeerHits
		}
		hb.MemoFills = a.drainFills()
		// Per-tenant queue depths let the coordinator aggregate
		// cluster-wide tenant load across heartbeats.
		if td := a.cfg.Server.TenantQueueDepths(); len(td) > 0 {
			hb.Tenants = td
		}
		body, _ := json.Marshal(hb)
		resp, err := a.http.Post(a.CoordinatorURL()+"/cluster/v1/heartbeat",
			"application/json", bytes.NewReader(body))
		if err != nil {
			// Unreachable coordinator: keep beating at the usual cadence —
			// a blip heals itself — but give up after hbFailLimit straight
			// misses and fail over to the next configured coordinator.
			a.stashFills(hb.MemoFills)
			fails++
			if fails >= hbFailLimit {
				a.cfg.Logf("cluster: coordinator %s unreachable for %d heartbeats; failing over",
					a.CoordinatorURL(), fails)
				a.rotate()
				return true
			}
			continue
		}
		code := resp.StatusCode
		_ = resp.Body.Close()
		if code == http.StatusNotFound {
			return true
		}
		if code != http.StatusOK {
			// A standby answers 503 until it takes over; treat persistent
			// non-OK like unreachability so the agent moves on.
			a.stashFills(hb.MemoFills)
			fails++
			if fails >= hbFailLimit {
				a.cfg.Logf("cluster: coordinator %s refusing heartbeats (%d); failing over",
					a.CoordinatorURL(), code)
				a.rotate()
				return true
			}
			continue
		}
		fails = 0
	}
}

// drainFills merges newly filled digests from the cache's recent-fills
// window with any buffered from undeliverable beats, newest kept.
func (a *Agent) drainFills() []string {
	fresh := a.cfg.Server.MemoCache().RecentFills()
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.pendingFills
	a.pendingFills = nil
	for _, k := range fresh {
		out = append(out, k.String())
	}
	if len(out) > fillWindow {
		out = out[len(out)-fillWindow:]
	}
	return out
}

// stashFills re-buffers digests whose heartbeat never arrived.
func (a *Agent) stashFills(fills []string) {
	if len(fills) == 0 {
		return
	}
	a.mu.Lock()
	a.pendingFills = fills
	a.mu.Unlock()
}
