package serve

import (
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/pipeline"
)

// recordStream is the hand-off between a pipeline job's sink and its HTTP
// stream readers: an append-only log of marshaled NDJSON lines with a
// broadcast wake-up, so a reader replays everything already produced and
// then follows live until the job finishes. Readers never slow the
// pipeline down — a slow client lags behind the log rather than exerting
// backpressure on the stages.
type recordStream struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	wake   chan struct{} // closed and replaced on every append / close
}

func newRecordStream() *recordStream {
	return &recordStream{wake: make(chan struct{})}
}

// append adds one line and wakes every waiting reader.
func (rs *recordStream) append(line []byte) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return
	}
	rs.lines = append(rs.lines, line)
	close(rs.wake)
	rs.wake = make(chan struct{})
}

// close marks the stream complete; readers drain and see end-of-stream.
func (rs *recordStream) close() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return
	}
	rs.closed = true
	close(rs.wake)
}

// next returns line i if it exists, whether the stream is complete, and
// the channel a reader should wait on when i is past the end.
func (rs *recordStream) next(i int) (line []byte, ok, closed bool, wake <-chan struct{}) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if i < len(rs.lines) {
		return rs.lines[i], true, rs.closed, rs.wake
	}
	return nil, false, rs.closed, rs.wake
}

// handleStream is GET /v1/jobs/{id}/stream: the job's records as NDJSON,
// flushed line by line as stages produce them, so a client sees early
// records while later stages are still running. The stream ends (EOF)
// when the job reaches a terminal state; a job that failed mid-stream
// simply truncates, and the client learns the error from GET
// /v1/jobs/{id}. A job with no live record stream — recovered from the
// WAL, or run by an executor elsewhere — answers once it is bound, with
// its durable output, byte-identical to the live stream.
func (h *Host[J]) handleStream(w http.ResponseWriter, r *http.Request) {
	t, ok := h.task(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job id"})
		return
	}
	if t.req.Type != JobPipeline {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "not a pipeline job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)

	if t.stream == nil {
		select {
		case <-t.life.Done():
		case <-r.Context().Done():
			return
		}
		if pipe := t.life.Results().Pipeline; pipe != nil {
			for i := range pipe.Output {
				if !writeNDJSONRecord(w, &pipe.Output[i]) {
					return
				}
			}
		}
		return
	}
	for i := 0; ; {
		line, ok, closed, wake := t.stream.next(i)
		if ok {
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			i++
			continue
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func writeNDJSONRecord(w http.ResponseWriter, rec *pipeline.Record) bool {
	blob, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	if _, err := w.Write(append(blob, '\n')); err != nil {
		return false
	}
	return true
}
