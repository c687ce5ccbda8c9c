package cluster

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/serve"
	"repro/internal/trace"
)

// handleTrace serves the coordinator's event stream. With ?format=chrome
// it additionally pulls every live worker's /debug/trace and merges the
// streams into one Chrome trace_event file: lane 0 is the coordinator
// (ship/deliver), and each worker's pool occupies its own contiguous lane
// block, with worker clocks aligned to the coordinator's via the uptime
// carried on heartbeats — one Perfetto timeline for the whole cluster.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := c.ring.Events()
	if r.URL.Query().Get("format") == "chrome" {
		chrome := trace.NewChrome()
		sources := c.reg.traceSources()
		// base[i] is the first merged lane of source i; lane 0 is the
		// coordinator's.
		base := make(map[int]int, len(sources))
		next := 1
		for _, s := range sources {
			base[s.index] = next
			lanes := s.poolWorkers
			if lanes < 1 {
				lanes = 1
			}
			next += lanes
		}
		for _, e := range events {
			// Coordinator ship events target a worker index; point them at
			// that worker's first lane so Perfetto draws the arrowhead on
			// the pool that received the job.
			if lane, ok := base[e.Proc]; ok && e.Proc >= 0 {
				e.Proc = lane
			} else {
				e.Proc = 0
			}
			e.From = 0
			chrome.Event(e)
		}
		for _, s := range sources {
			for _, e := range c.fetchWorkerTrace(s, base[s.index]) {
				chrome.Event(e)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="cluster-trace.json"`)
		_, _ = chrome.WriteTo(w)
		return
	}
	serve.WriteTrace(w, c.ring, events)
}

// fetchWorkerTrace pulls one worker's event stream and rebases it into the
// merged timeline: lanes shifted into the worker's block starting at base,
// clock shifted by the worker's start offset. A dead or unreachable worker
// contributes nothing rather than failing the export.
func (c *Coordinator) fetchWorkerTrace(s traceSource, base int) []trace.Event {
	resp, err := c.cfg.Client.Get(s.addr + "/debug/trace")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil
	}
	var doc struct {
		Events []serve.TraceEventJSON `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
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
