package cluster

import (
	"sync/atomic"

	"repro/internal/serve"
)

// coordMetrics counts what the placement loop and the registry see; the
// admission and outcome counters are the host's.
type coordMetrics struct {
	retries      atomic.Int64 // re-placements after a worker failure
	saturated    atomic.Int64 // re-placements after a worker 429
	workerDeaths atomic.Int64 // heartbeat expiries

	decisionsHarvested  atomic.Int64 // mid-flight decision records journaled from worker polls
	decisionCompletions atomic.Int64 // jobs finished from a decision record instead of a re-placement
}

// WorkerMetrics is one worker's row in the coordinator's /metrics.
type WorkerMetrics struct {
	ID          string `json:"id"`
	Index       int    `json:"index"`
	Addr        string `json:"addr"`
	PoolWorkers int    `json:"pool_workers"`
	Live        bool   `json:"live"`
	// LastBeatAgeMS is how stale the last heartbeat is.
	LastBeatAgeMS float64 `json:"last_beat_age_ms"`
	// QueueDepth/Inflight/Done/Failed are worker-reported (last heartbeat).
	QueueDepth int   `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
	Done       int64 `json:"done"`
	Failed     int64 `json:"failed"`
	// MemoHits/MemoMisses are the worker's memo cache counters as of its
	// last heartbeat (zero when memoization is disabled on the worker).
	MemoHits   int64 `json:"memo_hits,omitempty"`
	MemoMisses int64 `json:"memo_misses,omitempty"`
	// MemoRemoteHits counts local misses the worker answered by fetching
	// the entry from a peer (last heartbeat).
	MemoRemoteHits int64 `json:"memo_remote_hits,omitempty"`
	// Tenants is the worker's last-reported per-tenant queue depth.
	Tenants map[string]int `json:"tenants,omitempty"`
	// Shipped/Completed/Retried are coordinator-side: jobs placed on this
	// worker, completed by it, and re-placed off it after it failed.
	Shipped   int64 `json:"shipped"`
	Completed int64 `json:"completed"`
	Retried   int64 `json:"retried"`
	Saturated bool  `json:"saturated"`
	// clockOffset is the worker pool's t=0 on the coordinator's trace
	// clock, for merging its trace.
	clockOffset int64
}

// MetricsSnapshot is the coordinator's /metrics JSON document.
type MetricsSnapshot struct {
	serve.HostMetrics
	Policy string `json:"policy"`
	// LiveWorkers counts workers currently accepting placements; Pending
	// counts accepted jobs not yet terminal (bounded by PendingCap).
	LiveWorkers int   `json:"live_workers"`
	Pending     int   `json:"pending"`
	PendingCap  int   `json:"pending_cap"`
	Accepted    int64 `json:"accepted"`

	// Retries counts re-placements after worker failures; Saturated counts
	// re-placements after worker 429s; WorkerDeaths counts heartbeat
	// expiries.
	Retries      int64 `json:"retries"`
	Saturated    int64 `json:"saturated_replacements"`
	WorkerDeaths int64 `json:"worker_deaths"`

	// DecisionsHarvested counts mid-flight decision records journaled off
	// worker status polls; DecisionCompletions counts jobs finished from
	// such a record instead of a re-placement (terminated-search retries
	// that became no-ops).
	DecisionsHarvested  int64 `json:"decisions_harvested,omitempty"`
	DecisionCompletions int64 `json:"decision_completions,omitempty"`

	Workers []WorkerMetrics `json:"workers"`
	// Memo aggregates the workers' last-reported memo cache counters into a
	// cluster-wide view; absent when no worker has memoization enabled.
	Memo *ClusterMemoSummary `json:"memo,omitempty"`
	// MemoIndex is the peer memo tier's digest→workers index; absent
	// until a worker advertises a fill or a peer looks one up.
	MemoIndex *MemoIndexStats `json:"memo_index,omitempty"`
	// TenantDepths sums the workers' last-reported per-tenant queue depths
	// into the cluster-wide per-tenant load; absent when no worker reports
	// tenant queues.
	TenantDepths map[string]int `json:"tenant_depths,omitempty"`
}

// ClusterMemoSummary is the cluster-wide aggregate of the workers'
// content-addressed memo caches, summed over their last heartbeats.
type ClusterMemoSummary struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// RemoteHits are local misses answered by peer fetch: every one is
	// also counted in Misses by the worker that fetched, so the cluster's
	// effective warm rate is (Hits+RemoteHits)/(Hits+Misses).
	RemoteHits int64 `json:"remote_hits,omitempty"`
	// HitRate is the local-only rate, comparable to a single node's cache.
	HitRate float64 `json:"hit_rate"`
	// EffectiveHitRate counts a peer-served result as a cluster hit.
	EffectiveHitRate float64 `json:"effective_hit_rate"`
}

// tenantDepths sums the workers' last-reported per-tenant queue depths;
// nil when no worker reports any tenant queue.
func tenantDepths(workers []WorkerMetrics) map[string]int {
	var sum map[string]int
	for _, w := range workers {
		for tenant, depth := range w.Tenants {
			if sum == nil {
				sum = make(map[string]int)
			}
			sum[tenant] += depth
		}
	}
	return sum
}

// memoSummary sums the workers' last-reported cache counters; nil when no
// worker has reported any memo activity (memoization disabled everywhere).
func memoSummary(workers []WorkerMetrics) *ClusterMemoSummary {
	var s ClusterMemoSummary
	for _, w := range workers {
		s.Hits += w.MemoHits
		s.Misses += w.MemoMisses
		s.RemoteHits += w.MemoRemoteHits
	}
	if s.Hits+s.Misses == 0 {
		return nil
	}
	s.HitRate = float64(s.Hits) / float64(s.Hits+s.Misses)
	s.EffectiveHitRate = float64(s.Hits+s.RemoteHits) / float64(s.Hits+s.Misses)
	return &s
}

func (m *coordMetrics) snapshot(h serve.Counts, policy string, pendingCap int, workers []WorkerMetrics) MetricsSnapshot {
	live := 0
	for _, w := range workers {
		if w.Live {
			live++
		}
	}
	return MetricsSnapshot{
		HostMetrics:  h.HostMetrics,
		Policy:       policy,
		LiveWorkers:  live,
		Pending:      h.Live,
		PendingCap:   pendingCap,
		Accepted:     h.Admitted,
		Retries:      m.retries.Load(),
		Saturated:    m.saturated.Load(),
		WorkerDeaths: m.workerDeaths.Load(),

		DecisionsHarvested:  m.decisionsHarvested.Load(),
		DecisionCompletions: m.decisionCompletions.Load(),
		Workers:             workers,
		Memo:                memoSummary(workers),
		TenantDepths:        tenantDepths(workers),
	}
}
