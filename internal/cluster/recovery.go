package cluster

import (
	"time"

	"repro/internal/serve"
)

// recoverFromStore rebuilds the coordinator's job table from the durable
// store's replayed state. Terminal jobs are materialized so polling and
// idempotent resubmission work across the restart; incomplete jobs — the
// orphans of the crash — are re-placed under their original IDs with a
// fresh deadline and a clean attempt budget, since whatever the old
// process had in flight died with it. One carrying a replayed decision is
// completed from it by run() without ever being re-placed (standby takeover
// rides this path too). Called from NewCoordinator before any handler
// runs, so no locking is needed.
func (c *Coordinator) recoverFromStore() {
	for _, js := range c.cfg.Store.Jobs() {
		req, life := serve.Replay(c.cfg.Store, js)
		j := &Job{
			id:       js.ID,
			req:      req,
			body:     js.Request,
			life:     life,
			workerID: js.Worker,
			excluded: make(map[string]bool),
		}
		c.ledger.Restore(j.id, j, js.Client)
		if life.Live() {
			j.deadline = time.Now().Add(serve.TimeoutFor(&req, c.cfg.DefaultTimeout, c.cfg.MaxTimeout))
			c.pending.Add(1)
			c.jobsWG.Add(1)
			go c.run(j)
		}
	}
}
