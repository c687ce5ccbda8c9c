package serve

import "context"

// recoverFromStore rebuilds the job table from the durable store's replayed
// state. Terminal jobs are materialized so polling and idempotent
// resubmission keep working across the restart; incomplete jobs are rebuilt
// under their original IDs and returned for re-admission. Called from New
// before the worker pool starts, so no locking is needed.
func (s *Server) recoverFromStore() []*Job {
	var resume []*Job
	for _, js := range s.cfg.Store.Jobs() {
		req, life := Replay(s.cfg.Store, js)
		j := &Job{id: js.ID, req: req, life: life, worker: -1}
		if life.Live() {
			j.ctx, j.cancel = context.WithTimeout(context.Background(),
				TimeoutFor(&req, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
			if req.Type == JobPipeline {
				// The re-run resumes from its WAL checkpoints; its stream
				// replays the completed prefix and continues live.
				j.stream = newRecordStream()
			}
			resume = append(resume, j)
		}
		s.ledger.Restore(j.id, j, js.Client)
	}
	return resume
}
