package main

import (
	"fmt"
	"time"
)

// kind names one entry of a workload's job mix. Align jobs appear twice —
// exact and banded — because the two take different kernel paths.
type kind string

const (
	kindAlign       kind = "align"
	kindAlignBanded kind = "align_banded"
	kindTree        kind = "tree"
	kindSearch      kind = "search"
	kindGrid        kind = "grid"
	kindSort        kind = "sort"
	kindPipeline    kind = "pipeline"
)

// kinds lists every mix entry in a fixed order, for stable iteration.
var kinds = []kind{kindAlign, kindAlignBanded, kindTree, kindSearch, kindGrid, kindSort, kindPipeline}

// workload is one traffic mix and the daemon topology it runs against.
// Rates, K, pool sizes and latency limits are fixed here and in the
// workload's "why" line of BENCHMARK.json; nothing is recalibrated at run
// time, so a faster program receives the same load.
type workload struct {
	name string

	// Daemon topology. workers == 0 means the client talks to one motifd
	// directly; otherwise it talks to motifctl in front of that many
	// motifd workers joined with cluster.StartAgent.
	workers   int
	wal       bool  // durable store with fsync on the daemon the client talks to
	memoBytes int64 // memo cache per motifd (0 = off, the motifd default)

	// Load. An open loop sends rate jobs/s on a fixed schedule; a closed
	// loop (k > 0) keeps k jobs outstanding.
	rate float64
	k    int

	// latencyLimit is the goodput limit: a job that completes later than
	// this after it was due does not count as goodput.
	latencyLimit time.Duration

	// pollEvery is the client's poll cadence per outstanding job.
	pollEvery time.Duration

	// mix weights each job kind; zipfPool > 0 draws specs from a finite
	// pool of that many specs, Zipf-distributed (exponent zipfS), instead
	// of making every spec unique.
	mix      map[kind]int
	zipfPool int
	zipfS    float64

	// treeNodeCostMicros is the sleep per tree node (tree.node_cost_us).
	treeNodeCostMicros int64
}

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]*workload{
	// One motifd with the WAL on (fsync) and the memo on, but every job
	// unique, so the cache only fills. Open loop at half the one-node
	// capacity: on a 2-CPU host this mix meets the 50 ms p95 limit up to
	// about 800 jobs/s (p95 30 ms at 700/s, 90 ms at 900/s, sheds at
	// 1300/s). The limit is ~8× the baseline p95.
	"direct-wal": {
		name:         "direct-wal",
		wal:          true,
		memoBytes:    64 << 20,
		rate:         400,
		latencyLimit: 50 * time.Millisecond,
		pollEvery:    2 * time.Millisecond,
		mix: map[kind]int{
			kindAlign: 20, kindAlignBanded: 20, kindTree: 16,
			kindSearch: 12, kindGrid: 13, kindSort: 13, kindPipeline: 5,
		},
	},
	// motifctl in front of two memo workers with peer fetch, no WAL. Specs
	// repeat from a Zipf pool, so most submissions are answered from a
	// cache. Pipeline jobs are excluded: motifctl drops their result.
	"cluster-memo": {
		name:         "cluster-memo",
		workers:      2,
		memoBytes:    64 << 20,
		rate:         200,
		latencyLimit: 100 * time.Millisecond,
		pollEvery:    5 * time.Millisecond,
		mix: map[kind]int{
			kindAlign: 36, kindAlignBanded: 24, kindTree: 12,
			kindSearch: 10, kindGrid: 10, kindSort: 8,
		},
		zipfPool: 256,
		zipfS:    1.2,
	},
	// motifctl with its WAL on in front of four workers, memo off. Closed
	// loop of unique sleep-cost tree jobs: CPU stays low, so placement,
	// ship/poll and the coordinator WAL's group commit set the pace.
	"cluster-fanout": {
		name:               "cluster-fanout",
		workers:            4,
		wal:                true,
		k:                  16,
		latencyLimit:       100 * time.Millisecond,
		pollEvery:          5 * time.Millisecond,
		mix:                map[kind]int{kindTree: 1},
		treeNodeCostMicros: 2000,
	},
}

// workloadNames is the fixed order workloads are listed in.
var workloadNames = []string{"direct-wal", "cluster-memo", "cluster-fanout"}

// load describes the offered load for the environment stamp.
func (w *workload) load() string {
	if w.k > 0 {
		return fmt.Sprintf("closed loop, K=%d outstanding", w.k)
	}
	return fmt.Sprintf("open loop, %g jobs/s", w.rate)
}

// front names the daemon the client talks to.
func (w *workload) front() string {
	if w.workers == 0 {
		return "serve"
	}
	return "cluster"
}
