// Package serve is the network serving layer that makes the paper's Server
// motif real: a worker pool behind a bounded admission queue executes
// alignment jobs, generic tree reductions, Strand program runs, and
// streaming pipeline jobs (chains of motif stages whose records are
// delivered over HTTP as NDJSON while later stages are still running), with
// request batching for small jobs, per-request deadlines propagated as
// context.Context through the skeleton entry points, load shedding when the
// queue bound is hit, and graceful drain on shutdown. The pool emits the
// same structured trace events as the simulated machine, so /metrics and
// /debug/trace reuse internal/trace and internal/metrics unchanged.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/bio"
	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/qos"
	"repro/internal/skel"
	"repro/internal/strand"
	"repro/internal/term"
	"repro/internal/workload"
)

// JobType selects what a job executes.
type JobType string

// Job types.
const (
	// JobAlign runs a multiple-sequence-alignment over a phylogeny via the
	// native tree-reduction skeleton (the paper's Section 3 application).
	JobAlign JobType = "align"
	// JobTree runs a generic arithmetic tree reduction.
	JobTree JobType = "tree"
	// JobStrand runs a Strand program on the simulated multicomputer.
	JobStrand JobType = "strand"
	// JobPipeline runs a chain of named motif stages over a sequence stream
	// (internal/pipeline), with records streamed to the client as NDJSON via
	// GET /v1/jobs/{id}/stream while later stages are still executing.
	JobPipeline JobType = "pipeline"
	// JobSearch runs an or-parallel pattern search over a FASTA sequence
	// database (internal/jobs). With first_only set the search short-circuits
	// at its first match and journals the winner as a WAL decision record, so
	// crash replay, cluster retry, and standby takeover all return the same
	// solution instead of re-exploring.
	JobSearch JobType = "search"
	// JobGrid runs a boundary-driven Jacobi stencil relaxation to tolerance
	// or an iteration bound, with rolling WAL snapshots for crash resume.
	JobGrid JobType = "grid"
	// JobSort runs a divide-and-conquer mergesort over a deterministic key
	// set, journaling shallow subtree results for crash resume.
	JobSort JobType = "sort"
)

// JobRequest is the JSON body of POST /v1/jobs. Exactly one of the spec
// fields matching Type must be set (a missing spec selects defaults for
// align and tree jobs).
type JobRequest struct {
	Type JobType `json:"type"`
	// ID is an optional client-supplied idempotency key: a resubmission
	// carrying the ID of an already-accepted job returns that job instead
	// of running it again. With a durable store the dedup table survives
	// restarts, so retrying a submission across a server crash is safe.
	ID string `json:"id,omitempty"`
	// DeadlineMillis bounds queue wait + execution; 0 uses the server
	// default. The deadline is propagated as a context.Context into the
	// skeleton entry points, so an expired job aborts mid-reduction.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Label optionally tags the job for cluster placement: the
	// coordinator's Label policy ships jobs carrying equal labels to the
	// same worker (the paper's Tree-Reduce-2 pre-assignment — siblings
	// share a label, so they co-locate). The local serving layer ignores
	// it.
	Label string `json:"label,omitempty"`
	// Tenant is the accounting tenant this job bills against (default
	// "default"). Under fair QoS each tenant gets its own bounded
	// admission queue drained in proportion to its configured weight, so
	// one flooding tenant is shed without starving the rest. The HTTP
	// layer also accepts it as the X-Motif-Tenant header.
	Tenant string `json:"tenant,omitempty"`
	// Class is the job's priority class: "high", "normal" (default), or
	// "low". Higher classes dequeue first within a tenant, and a high
	// arrival that finds its bounds full may preempt *queued* lower-class
	// work (never running work). Also accepted as X-Motif-Class.
	Class string `json:"class,omitempty"`

	Align    *bio.AlignJob    `json:"align,omitempty"`
	Tree     *TreeSpec        `json:"tree,omitempty"`
	Strand   *StrandSpec      `json:"strand,omitempty"`
	Pipeline *pipeline.Spec   `json:"pipeline,omitempty"`
	Search   *jobs.SearchSpec `json:"search,omitempty"`
	Grid     *jobs.GridSpec   `json:"grid,omitempty"`
	Sort     *jobs.SortSpec   `json:"sort,omitempty"`
}

// TreeSpec describes a generic tree-reduction job over a random arithmetic
// tree (ops + and *, leaf values 1..3).
type TreeSpec struct {
	// Leaves sizes the tree (default 64, max 1<<16).
	Leaves int `json:"leaves,omitempty"`
	// Shape is random (default), balanced, or caterpillar.
	Shape string `json:"shape,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// NodeCostMicros sleeps this long in every internal-node evaluation
	// (max 100ms), making the reduction's cost controllable — recovery
	// tests use it to land a crash mid-reduction.
	NodeCostMicros int64 `json:"node_cost_us,omitempty"`
}

// TreeResult is the outcome of a tree job.
type TreeResult struct {
	Value         int64   `json:"value"`
	Leaves        int     `json:"leaves"`
	Units         int64   `json:"units"`
	CrossMessages int64   `json:"cross_messages"`
	Imbalance     float64 `json:"imbalance"`
	// ResumedNodes counts internal-node evaluations skipped because their
	// subtree values were restored from journaled checkpoints; a cold run
	// reports 0.
	ResumedNodes int64 `json:"resumed_nodes,omitempty"`
	// MemoNodes counts internal-node evaluations skipped because their
	// subtree values were found in the content-addressed memo cache.
	MemoNodes int64 `json:"memo_nodes,omitempty"`
}

// StrandSpec describes a Strand program run. Deadlines apply before the
// run starts; once running, the simulation is bounded by MaxCycles rather
// than wall time (the simulator is single-threaded and fast).
type StrandSpec struct {
	// Source is the program text in the rule notation.
	Source string `json:"source"`
	// Goal is the initial goal term (default "main").
	Goal string `json:"goal,omitempty"`
	// Procs is the simulated processor count (default 4, max 64).
	Procs int   `json:"procs,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// MaxCycles caps the simulation (default 1e6, max 1e8).
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// StrandResult is the outcome of a strand job.
type StrandResult struct {
	Reductions int64  `json:"reductions"`
	Makespan   int64  `json:"makespan"`
	Messages   int64  `json:"messages"`
	Output     string `json:"output,omitempty"`
}

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are StateDone, StateError, and
// StatePreempted.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateError   State = "error"
	// StatePreempted marks a queued job evicted by the QoS layer to make
	// room for a higher-class arrival. The work never started, so
	// resubmitting is always safe — clients should treat it like a 429.
	StatePreempted State = "preempted"
)

// Job is motifd's job: the host's task plus where the pool ran it.
type Job struct {
	*Task[*Job]

	mu        sync.Mutex
	worker    int
	batchSize int

	// testBody, when non-nil, replaces the job body. Tests use it to hold
	// a worker busy deterministically.
	testBody func(ctx context.Context) error
}

// JobStatus is the JSON view of a job returned by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string  `json:"id"`
	Type  JobType `json:"type"`
	State State   `json:"state"`
	Error string  `json:"error,omitempty"`
	// QueueMillis is submission→start (or →now while queued); RunMillis is
	// start→finish (or →now while running).
	QueueMillis float64 `json:"queue_ms"`
	RunMillis   float64 `json:"run_ms"`
	// Worker is the pool worker that executed the job (-1 before start).
	Worker int `json:"worker"`
	// BatchSize is the size of the farm dispatch this job rode in (1 for
	// an unbatched run).
	BatchSize int `json:"batch_size,omitempty"`
	// Tenant and Class echo the request's QoS identity.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`

	Results

	// Decision is the job's journaled mid-flight commitment, if any. It is
	// visible while the job is still running — that is the point: a poller
	// (the cluster coordinator) can make the commitment durable on its side
	// before this worker finishes or dies, and a retry then honors it.
	Decision *DecisionNote `json:"decision,omitempty"`
}

// Results is a job's result block: on a finished job, the pointer named
// after its type is set. It is the one shape behind motifd's JobStatus,
// motifctl's JobView, the job-level memo payload and the WAL done record;
// embedded in the first two, its keys sit in place in the JSON body.
type Results struct {
	Align    *bio.AlignJobResult `json:"align,omitempty"`
	Tree     *TreeResult         `json:"tree,omitempty"`
	Strand   *StrandResult       `json:"strand,omitempty"`
	Pipeline *pipeline.Result    `json:"pipeline,omitempty"`
	Search   *jobs.SearchResult  `json:"search,omitempty"`
	Grid     *jobs.GridResult    `json:"grid,omitempty"`
	Sort     *jobs.SortResult    `json:"sort,omitempty"`
}

// DecisionNote is the status view of a journaled decision record.
type DecisionNote struct {
	Reason string          `json:"reason"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	l := j.life.Snapshot()
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Type:        j.req.Type,
		State:       l.State,
		Error:       l.Err,
		QueueMillis: l.QueueMillis,
		RunMillis:   l.RunMillis,
		Worker:      j.worker,
		BatchSize:   j.batchSize,
		Tenant:      j.req.Tenant,
		Class:       j.req.Class,
		Results:     l.Results,
		Decision:    l.Decision,
	}
}

// Validate normalizes the request in place and rejects malformed specs up
// front, so admission failures are 400s rather than queued errors. The
// cluster coordinator validates at admission with the same rules, so a job
// never ships only to be rejected by the worker.
func (r *JobRequest) Validate() error {
	if len(r.Label) > 256 {
		return fmt.Errorf("label too long (%d bytes, max 256)", len(r.Label))
	}
	if len(r.ID) > 128 {
		return fmt.Errorf("id too long (%d bytes, max 128)", len(r.ID))
	}
	if len(r.Tenant) > 128 {
		return fmt.Errorf("tenant too long (%d bytes, max 128)", len(r.Tenant))
	}
	if _, err := qos.ParseClass(r.Class); err != nil {
		return err
	}
	// A request may only carry the spec matching its type.
	for _, sp := range []struct {
		t  JobType
		ok bool
	}{
		{JobAlign, r.Align != nil}, {JobTree, r.Tree != nil},
		{JobStrand, r.Strand != nil}, {JobPipeline, r.Pipeline != nil},
		{JobSearch, r.Search != nil}, {JobGrid, r.Grid != nil},
		{JobSort, r.Sort != nil},
	} {
		if sp.ok && sp.t != r.Type {
			return fmt.Errorf("%s job with non-%s spec", r.Type, r.Type)
		}
	}
	switch r.Type {
	case JobAlign:
		if r.Align == nil {
			r.Align = &bio.AlignJob{}
		}
		if err := r.Align.Validate(); err != nil {
			return err
		}
	case JobTree:
		if r.Tree == nil {
			r.Tree = &TreeSpec{}
		}
		if r.Tree.Leaves == 0 {
			r.Tree.Leaves = 64
		}
		if r.Tree.Leaves < 1 || r.Tree.Leaves > 1<<16 {
			return fmt.Errorf("tree job leaves out of range: %d", r.Tree.Leaves)
		}
		if _, err := treeShape(r.Tree.Shape); err != nil {
			return err
		}
		if r.Tree.NodeCostMicros < 0 || r.Tree.NodeCostMicros > 100_000 {
			return fmt.Errorf("tree job node_cost_us out of range: %d", r.Tree.NodeCostMicros)
		}
	case JobStrand:
		if r.Strand == nil || strings.TrimSpace(r.Strand.Source) == "" {
			return fmt.Errorf("strand job needs source")
		}
		if r.Strand.Procs == 0 {
			r.Strand.Procs = 4
		}
		if r.Strand.Procs < 1 || r.Strand.Procs > 64 {
			return fmt.Errorf("strand job procs out of range: %d", r.Strand.Procs)
		}
		if r.Strand.MaxCycles == 0 {
			r.Strand.MaxCycles = 1_000_000
		}
		if r.Strand.MaxCycles < 1 || r.Strand.MaxCycles > 100_000_000 {
			return fmt.Errorf("strand job max_cycles out of range: %d", r.Strand.MaxCycles)
		}
		if r.Strand.Goal == "" {
			r.Strand.Goal = "main"
		}
	case JobPipeline:
		if r.Pipeline == nil {
			return fmt.Errorf("pipeline job needs a pipeline spec")
		}
		if err := r.Pipeline.Validate(); err != nil {
			return err
		}
	case JobSearch:
		if r.Search == nil {
			return fmt.Errorf("search job needs a search spec")
		}
		if err := r.Search.Validate(); err != nil {
			return err
		}
	case JobGrid:
		if r.Grid == nil {
			r.Grid = &jobs.GridSpec{}
		}
		if err := r.Grid.Validate(); err != nil {
			return err
		}
	case JobSort:
		if r.Sort == nil {
			r.Sort = &jobs.SortSpec{}
		}
		if err := r.Sort.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown job type %q (want align, tree, strand, pipeline, search, grid, or sort)", r.Type)
	}
	return nil
}

// qosClass is the request's parsed priority class. Validation already
// rejected unknown spellings, so the parse cannot fail here.
func (r *JobRequest) qosClass() qos.Class {
	c, _ := qos.ParseClass(r.Class)
	return c
}

func treeShape(s string) (workload.TreeShape, error) {
	switch s {
	case "", "random":
		return workload.ShapeRandom, nil
	case "balanced":
		return workload.ShapeBalanced, nil
	case "caterpillar":
		return workload.ShapeCaterpillar, nil
	default:
		return 0, fmt.Errorf("unknown tree shape %q", s)
	}
}

// execute runs the job body under its context and the given skeleton
// options and returns its result block; it is called on a pool worker. A
// non-nil cache memoizes subtree values inside align and tree reductions,
// so warm runs skip already-computed subtrees even across different jobs.
// penv is the host environment for pipeline jobs, menv the hook
// environment for the motif job types (nil otherwise).
func (j *Job) execute(opts skel.ReduceOptions, cache *memo.Cache, penv *pipeline.Env, menv *jobs.Env) (res Results, err error) {
	defer func() {
		// A panic in an eval function (e.g. on a corrupt intermediate
		// alignment) must fail the job, not the daemon.
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	if j.testBody != nil {
		return res, j.testBody(j.ctx)
	}
	switch j.req.Type {
	case JobAlign:
		res.Align, err = j.req.Align.RunMemo(j.ctx, opts, cache)
	case JobTree:
		res.Tree, err = runTree(j.ctx, j.req.Tree, opts, cache)
	case JobStrand:
		res.Strand, err = runStrand(j.ctx, j.req.Strand)
	case JobPipeline:
		res.Pipeline, err = pipeline.Run(j.ctx, j.req.Pipeline, penv)
	case JobSearch:
		res.Search, err = jobs.RunSearch(j.ctx, j.req.Search, menv)
	case JobGrid:
		res.Grid, err = jobs.RunGrid(j.ctx, j.req.Grid, menv)
	case JobSort:
		res.Sort, err = jobs.RunSort(j.ctx, j.req.Sort, menv)
	default:
		err = fmt.Errorf("unknown job type %q", j.req.Type)
	}
	if err != nil {
		return Results{}, err
	}
	return res, nil
}

// runTree reduces the spec's arithmetic tree.
func runTree(ctx context.Context, spec *TreeSpec, opts skel.ReduceOptions, cache *memo.Cache) (*TreeResult, error) {
	shape, err := treeShape(spec.Shape)
	if err != nil {
		return nil, err
	}
	tree := workload.SkelTree(workload.IntTree(spec.Leaves, shape, spec.Seed))
	eval := intEval
	if spec.NodeCostMicros > 0 {
		cost := time.Duration(spec.NodeCostMicros) * time.Microsecond
		eval = func(op string, l, r int64) int64 {
			time.Sleep(cost)
			return intEval(op, l, r)
		}
	}
	if cache != nil {
		skel.Memoize[int64](&opts, cache, skel.TreeDigests(tree, intLeafDigest),
			func(int64) int64 { return 8 })
	}
	val, stats, err := skel.TreeReduce(ctx, tree, eval, opts)
	if err != nil {
		return nil, err
	}
	return &TreeResult{
		Value:         val,
		Leaves:        spec.Leaves,
		Units:         stats.TotalUnits(),
		CrossMessages: stats.CrossMessages,
		Imbalance:     stats.Imbalance(),
		ResumedNodes:  stats.CheckpointHits,
		MemoNodes:     stats.MemoHits,
	}, nil
}

// intLeafDigest digests one arithmetic-tree leaf value.
func intLeafDigest(v int64) memo.Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return memo.Leaf("serve.int", b[:])
}

func intEval(op string, l, r int64) int64 {
	switch op {
	case "+":
		return l + r
	case "*":
		return l * r
	default:
		panic(fmt.Sprintf("serve: bad tree op %q", op))
	}
}

// maxStrandOutput bounds the buffered write/1 output of a strand job.
const maxStrandOutput = 1 << 16

// runStrand runs the spec's Strand program on the simulated machine.
func runStrand(ctx context.Context, spec *StrandSpec) (*StrandResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := term.NewHeap()
	prog, err := parser.Parse(h, spec.Source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	goal, err := parser.ParseTerm(h, spec.Goal)
	if err != nil {
		return nil, fmt.Errorf("bad goal: %w", err)
	}
	var out bytes.Buffer
	rt := strand.New(prog, h, strand.Options{
		Procs:     spec.Procs,
		Seed:      spec.Seed,
		MaxCycles: spec.MaxCycles,
		Out:       &limitWriter{w: &out, n: maxStrandOutput},
	})
	rt.Spawn(goal, 0)
	res, err := rt.Run()
	if err != nil {
		return nil, err
	}
	return &StrandResult{
		Reductions: res.Reductions,
		Makespan:   res.Metrics.Makespan,
		Messages:   res.Metrics.Messages,
		Output:     out.String(),
	}, nil
}

// limitWriter silently discards bytes beyond n.
type limitWriter struct {
	w *bytes.Buffer
	n int
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if rem := l.n - l.w.Len(); rem > 0 {
		if len(p) > rem {
			l.w.Write(p[:rem])
		} else {
			l.w.Write(p)
		}
	}
	return len(p), nil
}
