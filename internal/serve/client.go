package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client is the job API seen from the calling side: a proxy with the
// same four operations whether it fronts one motifd or the motifctl
// coordinator. S is the status document the far side answers with —
// JobStatus for motifd, cluster.JobView for motifctl — so neither side's
// extra fields are lost in decoding.
//
// The client owns the wire contract: URL building, the
// 202/429/503/400/404 status mapping, the server's {"error"} message,
// Retry-After parsing and body draining. Every error it returns is an
// *APIError; retry policy stays with the caller.
type Client[S any] struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8077") that sends its requests through hc
// (http.DefaultClient when nil).
func NewClient[S any](base string, hc *http.Client) *Client[S] {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client[S]{base: strings.TrimRight(base, "/"), hc: hc}
}

// ErrKind classifies a failed exchange with the job API.
type ErrKind int

const (
	// ErrTransport: no usable answer — the connection failed, or the
	// server sent an unexpected status or an undecodable body.
	ErrTransport ErrKind = iota
	// ErrShed: 429; the admission bound is hit, retry after Floor.
	ErrShed
	// ErrUnavailable: 503; the server is draining, a standby, or could
	// not journal the job. Retry after Floor.
	ErrUnavailable
	// ErrRejected: 400; the request itself is bad and Msg says why.
	ErrRejected
	// ErrNotFound: 404; the server does not know the job.
	ErrNotFound
)

// APIError is the one error type a Client returns.
type APIError struct {
	Kind ErrKind
	// Status is the HTTP status, 0 when no response arrived.
	Status int
	// Msg is the server's {"error"} message, or what went wrong.
	Msg string
	// Floor is the Retry-After backoff floor on ErrShed and ErrUnavailable.
	Floor time.Duration
	err   error
}

func (e *APIError) Error() string {
	if e.Status == 0 {
		return e.Msg
	}
	return fmt.Sprintf("HTTP %d: %s", e.Status, e.Msg)
}

func (e *APIError) Unwrap() error { return e.err }

// Submit posts an already-encoded JobRequest and returns the accepted
// job's status (202).
func (c *Client[S]) Submit(ctx context.Context, body []byte) (S, error) {
	return decodeAs[S](c.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted))
}

// Status fetches a job's current status.
func (c *Client[S]) Status(ctx context.Context, id string) (S, error) {
	return decodeAs[S](c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, http.StatusOK))
}

// Stream opens a pipeline job's NDJSON record stream. The body follows
// the job live and ends (EOF) when it reaches a terminal state; the
// caller closes it.
func (c *Client[S]) Stream(ctx context.Context, id string) (io.ReadCloser, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/stream", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Metrics decodes the daemon's /metrics document into out
// (*MetricsSnapshot for motifd, *cluster.MetricsSnapshot for motifctl).
func (c *Client[S]) Metrics(ctx context.Context, out any) error {
	return c.Get(ctx, "/metrics", out)
}

// Get decodes the JSON document the daemon answers GET path with into out.
func (c *Client[S]) Get(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	return decodeBody(resp, out)
}

// do performs one exchange and returns the response when it carries want;
// any other outcome is classified into an *APIError with the body drained.
func (c *Client[S]) do(ctx context.Context, method, path string, body []byte, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, &APIError{Msg: err.Error(), err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &APIError{Msg: err.Error(), err: err}
	}
	if resp.StatusCode == want {
		return resp, nil
	}
	defer drain(resp)
	e := &APIError{Status: resp.StatusCode, Msg: errorMessage(resp)}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		e.Kind, e.Floor = ErrShed, RetryAfterFloor(resp.Header.Get("Retry-After"))
	case http.StatusServiceUnavailable:
		e.Kind, e.Floor = ErrUnavailable, RetryAfterFloor(resp.Header.Get("Retry-After"))
	case http.StatusBadRequest:
		e.Kind = ErrRejected
	case http.StatusNotFound:
		e.Kind = ErrNotFound
	}
	return nil, e
}

func decodeAs[S any](resp *http.Response, err error) (S, error) {
	var s S
	if err != nil {
		return s, err
	}
	return s, decodeBody(resp, &s)
}

// decodeBody decodes a successful response into out and releases it.
func decodeBody(resp *http.Response, out any) error {
	defer drain(resp)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &APIError{Status: resp.StatusCode, Msg: "bad response body: " + err.Error(), err: err}
	}
	return nil
}

// drain reads what is left of a body (bounded) so the connection can be
// reused, then closes it.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// errorMessage extracts the server's {"error": ...} message, falling back
// to the status line.
func errorMessage(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}
