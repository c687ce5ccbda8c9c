package serve

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/store"
)

// recoverFromStore rebuilds the job table from the durable store's replayed
// state. Terminal jobs are materialized so polling and idempotent
// resubmission keep working across the restart; incomplete jobs are rebuilt
// under their original IDs and returned for re-admission. Called from New
// before the worker pool starts, so no locking is needed.
func (s *Server) recoverFromStore() []*Job {
	var resume []*Job
	for _, js := range s.cfg.Store.Jobs() {
		var j *Job
		if js.Status.Terminal() {
			if j = terminalJobFromStore(js); j == nil {
				s.ledger.Seen(js.ID)
				continue
			}
		} else {
			var req JobRequest
			if err := json.Unmarshal(js.Request, &req); err != nil || req.validate() != nil {
				// The journaled request no longer decodes (e.g. written by
				// a newer build); mark it failed rather than replaying it
				// forever.
				_ = s.cfg.Store.Failed(js.ID, "unrecoverable journaled request")
				s.ledger.Seen(js.ID)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(),
				TimeoutFor(&req, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
			j = &Job{
				id:        js.ID,
				req:       req,
				ctx:       ctx,
				cancel:    cancel,
				submitted: time.Now(),
				state:     StateQueued,
				worker:    -1,
			}
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

// terminalJobFromStore materializes a finished job from its journaled
// result, good for polling and dedup but carrying no live context.
func terminalJobFromStore(js store.JobState) *Job {
	now := time.Now()
	j := &Job{
		id:        js.ID,
		req:       JobRequest{ID: js.Client},
		submitted: now,
		finished:  now,
		worker:    -1,
	}
	var req JobRequest
	if json.Unmarshal(js.Request, &req) == nil {
		j.req.Type = req.Type
	}
	if js.Status == store.StatusDone {
		var st JobStatus
		if err := json.Unmarshal(js.Result, &st); err != nil {
			return nil
		}
		j.state = StateDone
		if st.Type != "" {
			j.req.Type = st.Type
		}
		j.res = st.Results
	} else {
		j.state = StateError
		j.err = errors.New(js.Error)
	}
	return j
}
