package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/bio"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// Client limits. The generator never uses more than senders goroutines or
// connections to the front end; it retries a shed submission at most
// shedRetries times and declares a job lost after pollFailures straight
// failed polls.
const (
	senders      = 2
	shedRetries  = 3
	shedBackoff  = 20 * time.Millisecond
	pollFailures = 3
	// drainCap bounds how long a phase waits for outstanding jobs after
	// its schedule ends; jobs still open then count as timed out.
	drainCap = 20 * time.Second
)

// Failure classes counted into the error rate.
const (
	failJob       = "failed"    // the job reached state error or preempted
	failWrong     = "wrong"     // done, but the result differs from the reference
	failTransport = "transport" // submit or poll could not reach the front end
	failShed      = "shed"      // still shed after the retry budget
	failTimeout   = "timeout"   // not done when the drain cap ran out
)

// status is the part of serve.JobStatus and cluster.JobView the client
// reads; both front ends answer with these field names.
type status struct {
	ID          string              `json:"id"`
	Type        serve.JobType       `json:"type"`
	State       serve.State         `json:"state"`
	Error       string              `json:"error"`
	QueueMillis float64             `json:"queue_ms"`
	RunMillis   float64             `json:"run_ms"`
	BatchSize   int                 `json:"batch_size"`
	Attempts    int                 `json:"attempts"`
	Align       *bio.AlignJobResult `json:"align"`
	Tree        *serve.TreeResult   `json:"tree"`
	Search      *jobs.SearchResult  `json:"search"`
	Grid        *jobs.GridResult    `json:"grid"`
	Sort        *jobs.SortResult    `json:"sort"`
	Pipeline    *pipeline.Result    `json:"pipeline"`
}

func (s *status) terminal() bool {
	return s.State == serve.StateDone || s.State == serve.StateError || s.State == serve.StatePreempted
}

// rec is one job's life as the client sees it.
type rec struct {
	n   int // index in the phase's stream
	job *job
	due time.Time // when the schedule said to send it

	sent    time.Time // first submit attempt
	submits int
	id      string
	polls   int
	fails   int // consecutive failed polls

	next     time.Time // when the next action is due
	resubmit bool      // the next action is a resubmission after a shed

	done time.Time
	res  *status
	fail string // failure class, "" on success

	span int // root span id (tracing only)
}

// recHeap orders outstanding jobs by their next action time.
type recHeap []*rec

func (h recHeap) Len() int           { return len(h) }
func (h recHeap) Less(i, j int) bool { return h[i].next.Before(h[j].next) }
func (h recHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x any)        { *h = append(*h, x.(*rec)) }
func (h *recHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// phase is one measured stretch of load: the client state of every job,
// the call timings, and the phase's wall-clock bounds.
type phase struct {
	recs      []*rec
	submitDur []time.Duration
	pollDur   []time.Duration
	start     time.Time
	end       time.Time
}

// loadgen drives one phase. senders goroutines share one scheduler: each
// takes the next due action — a scheduled submission first, else the
// outstanding job whose poll is most overdue — and performs it as one
// blocking HTTP call, so the front end never sees more than senders
// concurrent requests.
type loadgen struct {
	w      *workload
	client *http.Client
	front  string
	spans  *spans // nil when untraced
	s      stream

	mu       sync.Mutex
	ph       *phase
	nextJob  int
	stopAt   time.Time // closed loop: no new submissions after this
	drainBy  time.Time // outstanding jobs left after this time out
	pending  recHeap
	handling int // jobs taken by a sender and not yet handed back
	open     int // submitted jobs not yet finished
}

// newClient returns the front-end client: at most senders connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}

// runPhase sends the stream for seconds and waits for every job to finish
// or time out.
func runPhase(w *workload, client *http.Client, front string, s stream, seconds float64, sp *spans) *phase {
	g := &loadgen{w: w, client: client, front: front, spans: sp, s: s, ph: &phase{}}
	g.ph.start = time.Now()
	span := time.Duration(seconds * float64(time.Second))
	g.stopAt = g.ph.start.Add(span)
	g.drainBy = g.stopAt.Add(drainCap)
	var wg sync.WaitGroup
	wg.Add(senders)
	for i := 0; i < senders; i++ {
		go func() {
			defer wg.Done()
			g.send()
		}()
	}
	wg.Wait()
	g.ph.end = time.Now()
	return g.ph
}

// send is one sender goroutine's loop.
func (g *loadgen) send() {
	for {
		r, wait, ok := g.take()
		if !ok {
			return
		}
		if r == nil {
			time.Sleep(wait)
			continue
		}
		if r.resubmit || r.submits == 0 {
			g.submit(r)
		} else {
			g.poll(r)
		}
	}
}

// take returns the next action: a job to act on, or how long to wait.
// ok is false once the phase is over.
func (g *loadgen) take() (r *rec, wait time.Duration, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	wake := now.Add(g.w.pollEvery)
	if g.nextJob < len(g.s.jobs) {
		if g.s.due != nil {
			due := g.ph.start.Add(g.s.due[g.nextJob])
			if !due.After(now) {
				return g.arrive(due), 0, true
			}
			if due.Before(wake) {
				wake = due
			}
		} else if now.Before(g.stopAt) && g.open < g.w.k {
			return g.arrive(now), 0, true
		}
	}
	if now.After(g.drainBy) {
		for g.pending.Len() > 0 {
			r := heap.Pop(&g.pending).(*rec)
			r.fail, r.done = failTimeout, now
			g.open--
		}
	}
	if g.pending.Len() > 0 {
		top := g.pending[0]
		if !top.next.After(now) {
			heap.Pop(&g.pending)
			g.handling++
			return top, 0, true
		}
		if top.next.Before(wake) {
			wake = top.next
		}
	}
	arrivalsLeft := g.nextJob < len(g.s.jobs) && (g.s.due != nil || now.Before(g.stopAt))
	if !arrivalsLeft && g.pending.Len() == 0 && g.handling == 0 {
		return nil, 0, false
	}
	return nil, wake.Sub(now), true
}

// arrive creates the record of the next scheduled job; g.mu held.
func (g *loadgen) arrive(due time.Time) *rec {
	r := &rec{n: g.nextJob, job: &g.s.jobs[g.nextJob], due: due, span: g.spans.reserve()}
	g.nextJob++
	g.ph.recs = append(g.ph.recs, r)
	g.handling++
	g.open++
	return r
}

// requeue hands a job back to the scheduler for its next action at t.
func (g *loadgen) requeue(r *rec, t time.Time) {
	g.mu.Lock()
	r.next = t
	heap.Push(&g.pending, r)
	g.handling--
	g.mu.Unlock()
}

// finish closes a job's client-side life.
func (g *loadgen) finish(r *rec, res *status, fail string) {
	now := time.Now()
	g.mu.Lock()
	r.done, r.res, r.fail = now, res, fail
	g.handling--
	g.open--
	g.mu.Unlock()
	g.spans.record(r.span, 0, "job "+string(r.job.kind)+" "+r.id, "client", r.jobID(), jobLane0+r.n, r.due, now)
}

// jobID is the client-side identity every span of the job carries; the
// front end's id is only known once the submission is accepted.
func (r *rec) jobID() string { return "job-" + strconv.Itoa(r.n) }

// call performs one HTTP request and times it.
func (g *loadgen) call(method, url string, body []byte) (code int, data []byte, start, end time.Time, err error) {
	start = time.Now()
	var resp *http.Response
	if method == http.MethodPost {
		resp, err = g.client.Post(url, "application/json", bytes.NewReader(body))
	} else {
		resp, err = g.client.Get(url)
	}
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	}
	end = time.Now()
	return code, data, start, end, err
}

func (g *loadgen) submit(r *rec) {
	if r.submits == 0 {
		r.sent = time.Now()
	}
	r.submits++
	r.resubmit = false
	code, data, start, end, err := g.call(http.MethodPost, g.front+"/v1/jobs", []byte(r.job.specKey))
	g.mu.Lock()
	g.ph.submitDur = append(g.ph.submitDur, end.Sub(start))
	g.mu.Unlock()
	g.spans.record(g.spans.reserve(), r.span, "submit", g.w.front(), r.jobID(), jobLane0+r.n, start, end)
	switch {
	case err != nil:
		g.finish(r, nil, failTransport)
	case code == http.StatusTooManyRequests:
		if r.submits > shedRetries {
			g.finish(r, nil, failShed)
			return
		}
		r.resubmit = true
		g.requeue(r, end.Add(time.Duration(r.submits)*shedBackoff))
	case code != http.StatusAccepted:
		g.finish(r, nil, failTransport)
	default:
		var st status
		if json.Unmarshal(data, &st) != nil || st.ID == "" {
			g.finish(r, nil, failTransport)
			return
		}
		r.id = st.ID
		if st.terminal() {
			g.finishStatus(r, &st)
			return
		}
		g.requeue(r, end.Add(g.w.pollEvery))
	}
}

func (g *loadgen) poll(r *rec) {
	r.polls++
	code, data, start, end, err := g.call(http.MethodGet, g.front+"/v1/jobs/"+r.id, nil)
	g.mu.Lock()
	g.ph.pollDur = append(g.ph.pollDur, end.Sub(start))
	g.mu.Unlock()
	g.spans.record(g.spans.reserve(), r.span, "poll", g.w.front(), r.jobID(), jobLane0+r.n, start, end)
	var st status
	if err != nil || code != http.StatusOK || json.Unmarshal(data, &st) != nil {
		r.fails++
		if r.fails >= pollFailures {
			g.finish(r, nil, failTransport)
			return
		}
		g.requeue(r, end.Add(g.w.pollEvery))
		return
	}
	r.fails = 0
	if st.terminal() {
		g.finishStatus(r, &st)
		return
	}
	g.requeue(r, end.Add(g.w.pollEvery))
}

// finishStatus closes a job that reached a terminal state.
func (g *loadgen) finishStatus(r *rec, st *status) {
	fail := ""
	if st.State != serve.StateDone {
		fail = failJob
	}
	g.finish(r, st, fail)
}
