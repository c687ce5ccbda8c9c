package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// scripted answers every request with one status, Retry-After header and
// body.
func scripted(t *testing.T, code int, retryAfter, body string) *Client[JobStatus] {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return NewClient[JobStatus](ts.URL, ts.Client())
}

func apiError(t *testing.T, err error) *APIError {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	return ae
}

// TestClientClassifiesStatuses drives Submit against each status the job
// API answers with and checks the kind, floor and message it reports.
func TestClientClassifiesStatuses(t *testing.T) {
	ctx := context.Background()
	st, err := scripted(t, http.StatusAccepted, "", `{"id":"j000007","type":"tree","state":"queued"}`).Submit(ctx, []byte(`{}`))
	if err != nil || st.ID != "j000007" || st.State != StateQueued {
		t.Fatalf("202: status %+v, err %v", st, err)
	}

	cases := []struct {
		name       string
		code       int
		retryAfter string
		body       string
		kind       ErrKind
		floor      time.Duration
		msg        string
	}{
		{"202 bad body", http.StatusAccepted, "", `{"id":`, ErrTransport, 0, ""},
		{"429 no header", http.StatusTooManyRequests, "", `{"error":"full"}`, ErrShed, RetryAfterSeconds * time.Second, "full"},
		{"429 integer", http.StatusTooManyRequests, "3", `{"error":"full"}`, ErrShed, 3 * time.Second, "full"},
		{"429 junk", http.StatusTooManyRequests, "soon", `{"error":"full"}`, ErrShed, RetryAfterSeconds * time.Second, "full"},
		{"503 no header", http.StatusServiceUnavailable, "", `{"error":"server draining"}`, ErrUnavailable, RetryAfterSeconds * time.Second, "server draining"},
		{"503 integer", http.StatusServiceUnavailable, "2", `{"error":"standby: not serving until takeover"}`, ErrUnavailable, 2 * time.Second, "standby: not serving until takeover"},
		{"503 junk", http.StatusServiceUnavailable, "later", `{"error":"job not journaled"}`, ErrUnavailable, RetryAfterSeconds * time.Second, "job not journaled"},
		{"400", http.StatusBadRequest, "", `{"error":"bad JSON: unexpected EOF"}`, ErrRejected, 0, "bad JSON: unexpected EOF"},
		{"404", http.StatusNotFound, "", `{"error":"unknown job id"}`, ErrNotFound, 0, "unknown job id"},
		{"500", http.StatusInternalServerError, "", "", ErrTransport, 0, "500 Internal Server Error"},
	}
	for _, tc := range cases {
		_, err := scripted(t, tc.code, tc.retryAfter, tc.body).Submit(ctx, []byte(`{}`))
		ae := apiError(t, err)
		if ae.Kind != tc.kind || ae.Status != tc.code || ae.Floor != tc.floor {
			t.Errorf("%s: kind %d status %d floor %v, want %d %d %v", tc.name, ae.Kind, ae.Status, ae.Floor, tc.kind, tc.code, tc.floor)
		}
		if tc.msg != "" && ae.Msg != tc.msg {
			t.Errorf("%s: message %q, want %q", tc.name, ae.Msg, tc.msg)
		}
	}
}

// TestClientAgainstServer checks the client against motifd's own handler:
// a 400 carries the server's message, an unknown id is ErrNotFound, a
// refused connection is ErrTransport, and Stream on a finished pipeline
// job returns its full NDJSON and then EOF.
func TestClientAgainstServer(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient[JobStatus](ts.URL, ts.Client())

	_, err := c.Submit(ctx, []byte(`{"type":"quantum"}`))
	if ae := apiError(t, err); ae.Kind != ErrRejected || ae.Msg == "" || ae.Msg == "400 Bad Request" {
		t.Fatalf("bad request: %+v, want ErrRejected with the server's message", ae)
	}
	if _, err := c.Status(ctx, "j999999"); apiError(t, err).Kind != ErrNotFound {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}

	st, err := c.Submit(ctx, mustJSON(t, JobRequest{Type: JobPipeline, Pipeline: pipelineSpec(0)}))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("pipeline job %s: %s", final.State, final.Error)
	}
	body, err := c.Stream(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if want := ndjson(t, final.Pipeline.Output); !bytes.Equal(got, want) {
		t.Fatalf("stream = %q, want %q", got, want)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, err = NewClient[JobStatus](dead.URL, nil).Status(ctx, st.ID)
	if ae := apiError(t, err); ae.Kind != ErrTransport || ae.Status != 0 {
		t.Fatalf("refused connection: %+v, want ErrTransport with no status", ae)
	}
}
