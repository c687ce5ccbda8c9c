package cluster

import (
	"context"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// Chrome answers GET /debug/trace?format=chrome: it pulls every live
// worker's /debug/trace and merges the streams with the coordinator's into
// one Chrome trace_event file. Lane 0 is the coordinator (ship/deliver),
// and each worker's pool occupies its own contiguous lane block, with
// worker clocks aligned to the coordinator's via the uptime carried on
// heartbeats — one Perfetto timeline for the whole cluster.
func (c *remote) Chrome(w http.ResponseWriter, events []trace.Event) {
	var sources []WorkerMetrics
	for _, wm := range c.reg.snapshot(time.Now()) {
		if wm.Live {
			sources = append(sources, wm)
		}
	}
	// base[i] is the first merged lane of worker index i; lane 0 is the
	// coordinator's.
	base := make(map[int]int, len(sources))
	next := 1
	for _, s := range sources {
		base[s.Index] = next
		next += max(s.PoolWorkers, 1)
	}
	merged := make([]trace.Event, 0, len(events))
	for _, e := range events {
		// Coordinator ship events target a worker index; point them at
		// that worker's first lane so Perfetto draws the arrowhead on the
		// pool that received the job.
		if lane, ok := base[e.Proc]; ok && e.Proc >= 0 {
			e.Proc = lane
		} else {
			e.Proc = 0
		}
		e.From = 0
		merged = append(merged, e)
	}
	for _, s := range sources {
		merged = append(merged, c.fetchWorkerTrace(s, base[s.Index])...)
	}
	serve.WriteChrome(w, "cluster-trace.json", merged)
}

// fetchWorkerTrace pulls one worker's event stream and rebases it into the
// merged timeline: lanes shifted into the worker's block starting at base,
// clock shifted by the worker's start offset. A dead or unreachable worker
// contributes nothing rather than failing the export.
func (c *remote) fetchWorkerTrace(s WorkerMetrics, base int) []trace.Event {
	var doc struct {
		Events []serve.TraceEventJSON `json:"events"`
	}
	if serve.NewClient[serve.JobStatus](s.Addr, c.http).Get(context.Background(), "/debug/trace", &doc) != nil {
		return nil
	}
	kinds := kindByName()
	out := make([]trace.Event, 0, len(doc.Events))
	for _, e := range doc.Events {
		k, ok := kinds[e.Kind]
		if !ok {
			continue
		}
		proc := e.Proc
		if proc < 0 {
			proc = 0
		}
		from := e.From
		if from >= 0 {
			from += base
		}
		out = append(out, trace.Event{
			Cycle: e.TMicros + s.clockOffset,
			Kind:  k,
			Proc:  base + proc,
			From:  from,
			Arg:   e.Arg,
			Label: e.Label,
		})
	}
	return out
}

// kindByName inverts trace.Kind.String for re-parsing worker streams.
func kindByName() map[string]trace.Kind {
	m := make(map[string]trace.Kind)
	for k := trace.KindEnqueue; k <= trace.KindBind; k++ {
		m[k.String()] = k
	}
	return m
}
