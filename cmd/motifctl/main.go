// Command motifctl is the cluster coordinator: the server front end that
// shards motif jobs across registered motifd worker daemons — the paper's
// Server ∘ Rand composition across real processes. Workers join with
// motifd -coordinator; clients submit to the coordinator exactly as they
// would to a single motifd, and the coordinator places each job on a
// worker via the selected policy, retries it elsewhere if the worker dies,
// and backs off workers that shed with 429.
//
// Usage:
//
//	motifctl [-addr :8070] [-policy rand|label|least] [-seed N]
//	         [-pending 256] [-attempts 4] [-heartbeat 500ms] [-drain 1m]
//	         [-store DIR] [-collapse] [-place 32]
//	         [-qos [-tenant-depth N] [-weights gold=4,free=1]]
//	         [-lease-ttl 2s] [-standby -peer URL]
//
// With -qos the coordinator's admission becomes tenant-aware, mirroring a
// single motifd one level up: accepted jobs queue in a weighted-fair
// scheduler (tenant from X-Motif-Tenant or the "tenant" body field),
// -place placement loops drain it in DRR order, per-tenant depth is
// bounded, and high-class arrivals preempt the same tenant's queued
// lower-class jobs back to their clients as retriable "preempted" states.
// Heartbeats additionally aggregate per-tenant queue depth across workers
// into /metrics.
//
// With -store the coordinator journals every job's lifecycle to a
// write-ahead log in DIR. On restart against the same directory it replays
// the log: finished jobs stay pollable, jobs orphaned by a crash are
// re-placed onto workers under their original IDs, and client-supplied
// request ids answer resubmissions idempotently across the restart. The
// store directory also carries a lease file the active coordinator keeps
// fresh — the ground truth a standby checks before taking over.
//
// With -standby the process starts as a hot spare instead: it answers
// /healthz with "standby", refuses everything else with 503 + Retry-After,
// and watches both the active coordinator (-peer URL, probed via /healthz)
// and the shared -store directory's lease. When the peer stays unreachable
// and the lease goes stale, the standby acquires the lease, replays the
// WAL, re-places orphaned jobs under their original IDs, and swaps in a
// full coordinator on its own address. Workers started with a multi-URL
// -coordinator list fail over to it on their own; clients retry through
// the ordinary Retry-After contract.
//
// Policies mirror the paper's placement strategies: rand is Tree-Reduce-1's
// uniform random shipping, label is Tree-Reduce-2's sticky pre-assignment
// (jobs sharing a label co-locate), least is the Scheduler motif fed by
// heartbeat queue-depth reports. Under the label policy, unlabeled jobs are
// labeled with their content digest, so identical content co-locates on the
// worker whose memo cache is already warm for it.
//
// With -collapse, identical in-flight submissions collapse onto one
// placement instead of being shipped twice; the worker-side memo caches
// (motifd -memo) then answer later repeats. Heartbeats report each worker's
// cache counters and /metrics aggregates them into a cluster hit-rate, and
// the coordinator's memo index answers workers' peer-location lookups for
// the cache tier (GET /cluster/v1/memo/{digest}).
//
// API:
//
//	POST /cluster/v1/register   worker joins (motifd -coordinator does this)
//	POST /cluster/v1/heartbeat  worker load report
//	GET  /cluster/v1/memo/{d}   peer memo tier: which workers hold digest d
//	POST /v1/jobs               submit a job (202 with id; 429 + Retry-After
//	                            when the pending bound is hit)
//	GET  /v1/jobs/{id}          poll a job
//	GET  /v1/jobs/{id}/stream   a pipeline job's records as NDJSON, once it
//	                            is done (its durable output)
//	GET  /v1/jobs               list recent jobs
//	GET  /metrics               coordinator + per-worker metrics (?format=text)
//	GET  /debug/trace           event stream (?format=chrome merges all live
//	                            workers into one Perfetto timeline)
//	GET  /healthz               liveness + drain state ("standby" on a spare)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cmdutil"
	"repro/internal/serve"
	"repro/internal/store"
)

// coordFlags carries the parsed coordinator configuration so the standby
// path can build the identical coordinator at takeover time.
type coordFlags struct {
	policyName  string
	seed        int64
	pending     int
	place       int
	attempts    int
	heartbeat   time.Duration
	collapse    bool
	fairQoS     bool
	tenantDepth int
	weights     map[string]int
}

// build opens the coordinator over an already-opened store.
func (cf *coordFlags) build(js *store.JobStore) (*cluster.Coordinator, error) {
	policy, err := cluster.NewPolicy(cf.policyName, cf.seed)
	if err != nil {
		return nil, err
	}
	return cluster.NewCoordinator(cluster.Config{
		Policy:            policy,
		Seed:              cf.seed,
		PendingCap:        cf.pending,
		PlaceWorkers:      cf.place,
		MaxAttempts:       cf.attempts,
		HeartbeatInterval: cf.heartbeat,
		Store:             js,
		MemoCollapse:      cf.collapse,
		FairQoS:           cf.fairQoS,
		TenantDepth:       cf.tenantDepth,
		TenantWeights:     cf.weights,
	})
}

// switchable is an http.Handler whose target can be swapped atomically —
// how a standby turns into the coordinator without dropping its listener.
type switchable struct {
	h atomic.Pointer[http.Handler]
}

func (s *switchable) swap(h http.Handler) { s.h.Store(&h) }

func (s *switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// standbyHandler is what a spare serves before takeover: an honest
// /healthz and a retriable refusal for everything else.
func standbyHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "standby"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "standby: not serving until takeover"})
	})
	return mux
}

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	policyName := flag.String("policy", "rand", "placement policy: rand, label, or least")
	pending := flag.Int("pending", 256, "pending-job bound (beyond it, shed with 429)")
	attempts := flag.Int("attempts", 4, "max placements per job before it fails")
	heartbeat := flag.Duration("heartbeat", cluster.DefaultHeartbeatInterval, "worker heartbeat interval")
	drain := flag.Duration("drain", time.Minute, "graceful-shutdown drain budget")
	seed := cmdutil.Seed(7)
	storeDir := flag.String("store", "", "durable job store directory; empty disables persistence")
	collapse := flag.Bool("collapse", false, "collapse identical in-flight submissions onto one placement")
	place := flag.Int("place", 32, "concurrent placement loops (queued jobs beyond them drain in QoS order)")
	standby := flag.Bool("standby", false, "start as a hot spare: watch -peer and the -store lease, take over when both lapse")
	peerURL := flag.String("peer", "", "active coordinator URL a -standby probes")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "store lease time-to-live; a standby treats an older lease as abandoned")
	fairQoS, tenantDepth, weightSpec := cmdutil.QoSFlags()
	flag.Parse()

	weights, err := cmdutil.TenantWeights(*weightSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motifctl: -weights: %v\n", err)
		os.Exit(2)
	}
	cf := &coordFlags{
		policyName:  *policyName,
		seed:        *seed,
		pending:     *pending,
		place:       *place,
		attempts:    *attempts,
		heartbeat:   *heartbeat,
		collapse:    *collapse,
		fairQoS:     *fairQoS,
		tenantDepth: *tenantDepth,
		weights:     weights,
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "motifctl"
	}
	holder := fmt.Sprintf("%s-%d", host, os.Getpid())

	if *standby {
		if *storeDir == "" || *peerURL == "" {
			fmt.Fprintln(os.Stderr, "motifctl: -standby needs -store (the shared WAL) and -peer (the active coordinator URL)")
			os.Exit(2)
		}
	}

	// The active path claims the lease before opening the store: two
	// coordinators appending to one WAL is the failure HA exists to prevent.
	var lease *store.Lease
	var js *store.JobStore
	var c *cluster.Coordinator
	if !*standby {
		if *storeDir != "" {
			lease, err = store.AcquireLease(*storeDir, holder, *leaseTTL)
			if err != nil {
				fmt.Fprintf(os.Stderr, "motifctl: %v\n", err)
				os.Exit(1)
			}
			js, err = store.Open(*storeDir, store.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "motifctl: store: %v\n", err)
				os.Exit(2)
			}
			m := js.Metrics()
			fmt.Fprintf(os.Stderr, "motifctl: store %s: replayed %d records (%d jobs, %d incomplete)\n",
				*storeDir, m.ReplayedRecords, m.TrackedJobs, m.IncompleteJobs)
		}
		c, err = cf.build(js)
		if err != nil {
			fmt.Fprintf(os.Stderr, "motifctl: %v\n", err)
			os.Exit(2)
		}
	}

	front := &switchable{}
	if c != nil {
		front.swap(c.Handler())
	} else {
		front.swap(standbyHandler())
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           front,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if *standby {
			fmt.Fprintf(os.Stderr, "motifctl: standby on %s (peer %s, store %s, lease ttl %s)\n",
				*addr, *peerURL, *storeDir, *leaseTTL)
		} else {
			fmt.Fprintf(os.Stderr, "motifctl: coordinating on %s (policy %s, pending %d, %d attempts)\n",
				*addr, cf.policyName, cf.pending, cf.attempts)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	// Takeover delivers the promoted coordinator (and its store) to the
	// shutdown path.
	took := make(chan struct{})
	if *standby {
		go func() {
			nc, njs, ok := watchAndTakeOver(ctx, *peerURL, *storeDir, holder, *leaseTTL, cf, &lease)
			if !ok {
				return
			}
			c, js = nc, njs
			front.swap(nc.Handler())
			close(took)
			fmt.Fprintf(os.Stderr, "motifctl: standby took over on %s\n", *addr)
		}()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "motifctl: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting submissions, let in-flight jobs
	// finish on their workers within the drain budget.
	fmt.Fprintln(os.Stderr, "motifctl: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "motifctl: http shutdown: %v\n", err)
	}
	if *standby {
		// The takeover goroutine may be mid-promotion; settle it.
		select {
		case <-took:
		case <-time.After(100 * time.Millisecond):
		}
	}
	if c != nil {
		if err := c.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "motifctl: drain incomplete: %v\n", err)
			os.Exit(1)
		}
	}
	if js != nil {
		if err := js.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "motifctl: store close: %v\n", err)
		}
	}
	lease.Release()
	if c != nil {
		m := c.Metrics()
		fmt.Fprintf(os.Stderr, "motifctl: drained (accepted=%d done=%d failed=%d retries=%d deaths=%d)\n",
			m.Accepted, m.Done, m.Failed, m.Retries, m.WorkerDeaths)
	}
}

// watchAndTakeOver probes the active coordinator and the shared lease
// until both lapse, then promotes: acquire the lease, replay the WAL,
// build the coordinator. Returns ok=false when the context ends first.
//
// Before takeover the standby only ever Tails the WAL read-only — opening
// it for writing would truncate a frame the active writer is mid-append on
// and start a competing segment.
func watchAndTakeOver(ctx context.Context, peer, dir, holder string, ttl time.Duration,
	cf *coordFlags, leaseOut **store.Lease) (*cluster.Coordinator, *store.JobStore, bool) {
	probe := ttl / 8
	if probe < 50*time.Millisecond {
		probe = 50 * time.Millisecond
	}
	client := &http.Client{Timeout: probe}
	// peerDownSince is zero while the peer answers /healthz at all — even
	// "draining" counts as alive, since a draining active still owns the WAL.
	var peerDownSince time.Time
	var lastTail store.TailInfo
	tick := time.NewTicker(probe)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, nil, false
		case <-tick.C:
		}
		resp, err := client.Get(peer + "/healthz")
		if err == nil {
			resp.Body.Close()
			peerDownSince = time.Time{}
			continue
		}
		if peerDownSince.IsZero() {
			peerDownSince = time.Now()
			if info, err := store.Tail(dir); err == nil && info != lastTail {
				lastTail = info
				fmt.Fprintf(os.Stderr, "motifctl: standby: peer lost; journal has %d records, %d jobs (%d incomplete)\n",
					info.Records, info.Jobs, info.Incomplete)
			}
			continue
		}
		// The lease is the tie-breaker: the peer's HTTP front can be
		// unreachable (partition, listener wedged) while the process still
		// owns the WAL and renews. Only a stale or absent lease — plus a
		// full TTL of peer silence — means the active is really gone.
		_, age, err := store.ReadLease(dir)
		stale := os.IsNotExist(err) || (err == nil && age > ttl)
		if time.Since(peerDownSince) < ttl || !stale {
			continue
		}
		lease, err := store.AcquireLease(dir, holder, ttl)
		if err != nil {
			continue // lost the race or the active came back; keep watching
		}
		js, err := store.Open(dir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "motifctl: takeover: store: %v\n", err)
			lease.Release()
			continue
		}
		m := js.Metrics()
		fmt.Fprintf(os.Stderr, "motifctl: takeover: replayed %d records (%d jobs, %d incomplete)\n",
			m.ReplayedRecords, m.TrackedJobs, m.IncompleteJobs)
		c, err := cf.build(js)
		if err != nil {
			fmt.Fprintf(os.Stderr, "motifctl: takeover: %v\n", err)
			js.Close()
			lease.Release()
			return nil, nil, false
		}
		*leaseOut = lease
		return c, js, true
	}
}
