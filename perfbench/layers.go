package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/memo"
	"repro/internal/serve"
	"repro/internal/store"
)

// layerMetrics computes the per-layer metrics of the traced phase m.
func layerMetrics(d *daemons, m *measured, refs *references, dir string) (map[string]float64, error) {
	ph := m.ph
	out := make(map[string]float64)
	completed := 0.0
	for _, r := range ph.recs {
		if r.fail == "" {
			completed++
		}
	}
	wall := ph.end.Sub(ph.start)

	// client / loadgen
	var detect, lag []float64
	polls := 0
	for _, r := range ph.recs {
		polls += r.polls
		if r.submits > 0 {
			lag = append(lag, msOf(r.sent.Sub(r.due)))
		}
		if r.fail == "" {
			detect = append(detect, msOf(r.done.Sub(r.due))-r.res.QueueMillis-r.res.RunMillis)
		}
	}
	out["client.submit_p50_ms"] = quantile(durationsMS(ph.submitDur), 0.5)
	out["client.poll_p50_ms"] = quantile(durationsMS(ph.pollDur), 0.5)
	out["client.polls_per_job"] = ratio(float64(polls), completed)
	out["client.detect_p50_ms"] = quantile(detect, 0.5)
	out["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	out["loadgen.repeat_share"] = m.repeatShare

	// serve: job statuses as motifd reports them — the client's own view
	// when it talks to motifd, the workers' histories behind motifctl.
	var serveStatus []serve.JobStatus
	if d.coord == nil {
		for _, r := range ph.recs {
			if r.res != nil {
				serveStatus = append(serveStatus, serve.JobStatus{
					Type: r.res.Type, State: r.res.State, QueueMillis: r.res.QueueMillis,
					RunMillis: r.res.RunMillis, BatchSize: r.res.BatchSize,
				})
			}
		}
	} else {
		serveStatus = workerStatuses(d, m.before, m.after)
	}
	var queue, latency, batch []float64
	run := make(map[serve.JobType][]float64)
	for _, st := range serveStatus {
		queue = append(queue, st.QueueMillis)
		latency = append(latency, st.QueueMillis+st.RunMillis)
		run[st.Type] = append(run[st.Type], st.RunMillis)
		b := st.BatchSize
		if b < 1 {
			b = 1
		}
		batch = append(batch, float64(b))
	}
	out["serve.queue_p50_ms"] = quantile(queue, 0.5)
	out["serve.queue_p95_ms"] = quantile(queue, 0.95)
	for _, t := range []serve.JobType{serve.JobAlign, serve.JobTree, serve.JobSearch, serve.JobGrid, serve.JobSort, serve.JobPipeline} {
		out["serve.run_p50_ms."+string(t)] = quantile(run[t], 0.5)
	}
	out["serve.batch_size_mean"] = mean(batch)

	var busyMS, poolWorkers, shed, qosWait, qosEWMA float64
	var fsyncs, appends, walBytes, fsyncP99 float64
	var hits, misses, fills, evictions, peerHits, lookups, fetchFailures float64
	for i, after := range m.after.serve {
		before := m.before.serve[i]
		for w := range after.PerWorker {
			busyMS += after.PerWorker[w].BusyMS - before.PerWorker[w].BusyMS
		}
		poolWorkers += float64(after.Workers)
		shed += float64(after.Shed - before.Shed)
		if q := after.QoS; q != nil {
			for _, t := range q.PerTenant {
				qosWait = max(qosWait, t.P99WaitMS)
			}
			qosEWMA += q.ServiceEWMAMS / float64(len(m.after.serve))
		}
		if after.Store != nil {
			fsyncs += float64(after.Store.Fsyncs - before.Store.Fsyncs)
			appends += float64(after.Store.Appends - before.Store.Appends)
			walBytes += float64(after.Store.SizeBytes - before.Store.SizeBytes)
			fsyncP99 = max(fsyncP99, after.Store.FsyncP99MS)
		}
		if after.Memo != nil {
			hits += float64(after.Memo.Hits - before.Memo.Hits)
			misses += float64(after.Memo.Misses - before.Memo.Misses)
			fills += float64(after.Memo.Fills - before.Memo.Fills)
			evictions += float64(after.Memo.Evictions - before.Memo.Evictions)
		}
		if after.Memoshare != nil {
			peerHits += float64(after.Memoshare.PeerHits - before.Memoshare.PeerHits)
			lookups += float64(after.Memoshare.Lookups - before.Memoshare.Lookups)
			fetchFailures += float64(after.Memoshare.FetchFailures - before.Memoshare.FetchFailures)
		}
	}
	if c := m.after.coord; c != nil && c.Store != nil {
		b := m.before.coord.Store
		fsyncs += float64(c.Store.Fsyncs - b.Fsyncs)
		appends += float64(c.Store.Appends - b.Appends)
		walBytes += float64(c.Store.SizeBytes - b.SizeBytes)
		fsyncP99 = max(fsyncP99, c.Store.FsyncP99MS)
	}
	out["serve.utilization"] = ratio(busyMS, msOf(wall)*poolWorkers)
	out["serve.shed"] = shed
	// Quantiles of the layers' own histograms cannot be differenced, so
	// the qos and fsync tails are read as of the end of the phase; the
	// daemons are booted fresh in every run.
	out["qos.wait_p99_ms"] = qosWait
	out["qos.service_ewma_ms"] = qosEWMA
	out["store.fsyncs_per_job"] = ratio(fsyncs, completed)
	out["store.records_per_fsync"] = ratio(appends, fsyncs)
	out["store.fsync_p99_ms"] = fsyncP99
	out["store.bytes_per_job"] = ratio(walBytes, completed)
	out["memo.hit_rate"] = ratio(hits, hits+misses)
	out["memo.fills_per_job"] = ratio(fills, completed)
	out["memo.evictions"] = evictions
	out["memoshare.peer_hits_per_lookup"] = ratio(peerHits, lookups)
	out["memoshare.fetch_failures"] = fetchFailures

	// cluster
	var cqueue, crun, attempts []float64
	if d.coord != nil {
		for _, r := range ph.recs {
			if r.fail == "" {
				cqueue = append(cqueue, r.res.QueueMillis)
				crun = append(crun, r.res.RunMillis)
				attempts = append(attempts, float64(r.res.Attempts))
			}
		}
	}
	out["cluster.queue_p50_ms"] = quantile(cqueue, 0.5)
	out["cluster.ship_overhead_p50_ms"] = 0
	out["cluster.attempts_per_job"] = mean(attempts)
	out["cluster.saturated_replacements"] = 0
	out["cluster.placement_spread"] = 0
	out["cluster.pending_mean"] = mean(m.pending)
	if c := m.after.coord; c != nil {
		out["cluster.ship_overhead_p50_ms"] = quantile(crun, 0.5) - quantile(latency, 0.5)
		out["cluster.saturated_replacements"] = float64(c.Saturated - m.before.coord.Saturated)
		out["cluster.placement_spread"] = placementSpread(m)
	}

	// kernels: the reference runs are benchmark-timed calls of each
	// layer's public entry point on this workload's own specs.
	for _, k := range kinds {
		out[probeLayer[k].metric] = quantile(durationsMS(refs.probeDur[k]), 0.5)
	}

	// process
	out["proc.alloc_kb_per_job"] = ratio(float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)/1024, completed)
	out["proc.gc_per_kjob"] = ratio(float64(m.after.mem.NumGC-m.before.mem.NumGC)*1000, completed)

	var err error
	if out["store.append_p50_ms"], err = appendProbe(dir, m.sp); err != nil {
		return nil, err
	}
	out["memo.get_p50_us"] = memoGetProbe(ph, m.sp)
	return out, nil
}

// placementSpread is max/min jobs completed per worker during the phase.
func placementSpread(m *measured) float64 {
	lo, hi := -1.0, 0.0
	for _, wm := range m.after.coord.Workers {
		n := float64(wm.Completed)
		for _, bm := range m.before.coord.Workers {
			if bm.ID == wm.ID {
				n -= float64(bm.Completed)
			}
		}
		hi = max(hi, n)
		if lo < 0 || n < lo {
			lo = n
		}
	}
	return ratio(hi, max(lo, 1))
}

// appendProbe times JobStore.Accepted on a scratch store beside the
// workload's WAL directories: the durable-append cost of this filesystem.
func appendProbe(dir string, sp *spans) (float64, error) {
	sdir, err := os.MkdirTemp(dir, "probe-wal-")
	if err != nil {
		return 0, fmt.Errorf("append probe: %w", err)
	}
	defer os.RemoveAll(sdir)
	js, err := store.Open(sdir, store.Options{})
	if err != nil {
		return 0, fmt.Errorf("append probe: %w", err)
	}
	body := []byte(`{"type":"tree","tree":{"leaves":16}}`)
	var durs []time.Duration
	for i := 0; i < 64; i++ {
		var aerr error
		durs = append(durs, sp.timed("probe store.Accepted", "store", "probe-store", laneProbe, func() {
			aerr = js.Accepted("p"+strconv.Itoa(i), "", body)
		}))
		if aerr != nil {
			js.Close()
			return 0, fmt.Errorf("append probe: %w", aerr)
		}
	}
	if err := js.Close(); err != nil {
		return 0, fmt.Errorf("append probe: %w", err)
	}
	return quantile(durationsMS(durs), 0.5), nil
}

// memoGetProbe times memo.Cache.Get hits on a scratch cache holding the
// phase's specs, in batches of 100 calls (one Get is below the clock's
// useful resolution); the result is µs per call.
func memoGetProbe(ph *phase, sp *spans) float64 {
	c := memo.New(64 << 20)
	var keys []memo.Key
	for _, r := range ph.recs {
		k := memo.Sum("perfbench", []byte(r.job.specKey))
		c.Put(k, memo.Bytes(r.job.specKey))
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0
	}
	const batch = 100
	var per []float64
	for b := 0; b < 200; b++ {
		d := sp.timed("probe memo.Get", "memo", "probe-memo", laneProbe, func() {
			for i := 0; i < batch; i++ {
				c.Get(keys[(b*batch+i)%len(keys)])
			}
		})
		per = append(per, float64(d.Nanoseconds())/1e3/batch)
	}
	return quantile(per, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
