package cluster

import (
	"encoding/json"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/store"
)

// recoverFromStore rebuilds the coordinator's job table from the durable
// store's replayed state. Terminal jobs are materialized so polling and
// idempotent resubmission work across the restart; incomplete jobs — the
// orphans of the crash — are re-placed under their original IDs. Called
// from NewCoordinator before any handler runs, so no locking is needed.
func (c *Coordinator) recoverFromStore() {
	now := time.Now()
	for _, js := range c.cfg.Store.Jobs() {
		var req serve.JobRequest
		if err := json.Unmarshal(js.Request, &req); err != nil || req.Validate() != nil {
			// The journaled request no longer decodes (e.g. written by a
			// newer build); mark it failed rather than replaying it forever.
			if !js.Status.Terminal() {
				_ = c.cfg.Store.Failed(js.ID, "unrecoverable journaled request")
			}
			c.ledger.Seen(js.ID)
			continue
		}
		j := &Job{
			id:        js.ID,
			req:       req,
			body:      js.Request,
			submitted: now,
			workerID:  js.Worker,
			excluded:  make(map[string]bool),
		}
		switch js.Status {
		case store.StatusDone:
			j.state = serve.StateDone
			j.finished = now
			// The done record is the worker's status; its result block is
			// the job's.
			var st serve.JobStatus
			if json.Unmarshal(js.Result, &st) == nil {
				j.res = st.Results
			}
		case store.StatusFailed:
			j.state = serve.StateError
			j.errMsg = js.Error
			j.finished = now
		default:
			// Orphaned by the crash: re-place with a fresh deadline and a
			// clean attempt budget — whatever the old process had in flight
			// died with it.
			j.state = serve.StateQueued
			j.deadline = now.Add(serve.TimeoutFor(&req, c.cfg.DefaultTimeout, c.cfg.MaxTimeout))
			// Unless the old process already harvested a decision record:
			// then the outcome is committed and run() completes from it
			// without ever re-placing (standby takeover rides this path too).
			if raw, ok := c.cfg.Store.Decisions(js.ID)[jobs.ReasonShortCircuit]; ok {
				j.decision = &serve.DecisionNote{
					Reason: jobs.ReasonShortCircuit,
					Data:   append(json.RawMessage(nil), raw...),
				}
			}
		}
		c.ledger.Restore(j.id, j, js.Client)
		if !js.Status.Terminal() {
			c.pending.Add(1)
			c.jobsWG.Add(1)
			go c.run(j)
		}
	}
}
