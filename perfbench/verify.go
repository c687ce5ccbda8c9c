package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/skel"
	synth "repro/internal/workload"
)

// Span lanes of the traced run's Chrome file.
const (
	laneScrape = 0
	laneProbe  = 1
	jobLane0   = 16
)

// probeLayer names the layer whose public entry point a kind's reference
// run calls, and the per-layer metric that times it.
var probeLayer = map[kind]struct{ layer, metric string }{
	kindAlign:       {"bio", "bio.align_ms"},
	kindAlignBanded: {"bio", "bio.align_banded_ms"},
	kindTree:        {"skel", "skel.tree_ms"},
	kindSearch:      {"jobs", "jobs.search_ms"},
	kindGrid:        {"jobs", "jobs.grid_ms"},
	kindSort:        {"jobs", "jobs.sort_ms"},
	kindPipeline:    {"pipeline", "pipeline.run_ms"},
}

// refOpts are the skeleton options of every reference run: motifd's
// default inner parallelism and seed. Results do not depend on them.
var refOpts = skel.ReduceOptions{Workers: 4, Mapper: skel.MapRandom, Seed: daemonSeed}

// references runs each distinct spec once through the public entry point
// of its layer and keeps the canonical result, so every served result of
// that spec can be checked against it. probeDur holds each call's time.
type references struct {
	canon    map[string][]byte
	probeDur map[kind][]time.Duration
}

func newReferences() *references {
	return &references{canon: make(map[string][]byte), probeDur: make(map[kind][]time.Duration)}
}

// add computes the reference of every spec of js not seen yet. The calls
// run one at a time, after the load has stopped, so each is timed alone.
func (r *references) add(ctx context.Context, js []*job, sp *spans) error {
	for _, j := range js {
		if _, ok := r.canon[j.specKey]; ok {
			continue
		}
		var st *status
		var err error
		n := len(r.canon)
		dur := sp.timed("probe "+string(j.kind), probeLayer[j.kind].layer, fmt.Sprintf("probe-%d", n), laneProbe, func() {
			st, err = reference(ctx, j)
		})
		if err != nil {
			return fmt.Errorf("reference %s: %w", j.kind, err)
		}
		if r.canon[j.specKey], err = canonical(j.kind, st); err != nil {
			return fmt.Errorf("reference %s: %w", j.kind, err)
		}
		r.probeDur[j.kind] = append(r.probeDur[j.kind], dur)
	}
	return nil
}

// check reports whether a served result matches the reference of its spec.
func (r *references) check(j *job, st *status) bool {
	got, err := canonical(j.kind, st)
	return err == nil && bytes.Equal(got, r.canon[j.specKey])
}

// reference runs one spec through its layer's public entry point.
func reference(ctx context.Context, j *job) (*status, error) {
	req := j.req
	switch req.Type {
	case serve.JobAlign:
		res, err := req.Align.RunMemo(ctx, refOpts, nil)
		return &status{Align: res}, err
	case serve.JobTree:
		// node_cost_us only sleeps: it changes timing, never the value, so
		// the reference reduces the same tree without it.
		tree := synth.SkelTree(synth.IntTree(req.Tree.Leaves, synth.ShapeRandom, req.Tree.Seed))
		v, _, err := skel.TreeReduce(ctx, tree, arith, refOpts)
		return &status{Tree: &serve.TreeResult{Value: v, Leaves: req.Tree.Leaves}}, err
	case serve.JobSearch:
		spec := *req.Search
		res, err := jobs.RunSearch(ctx, &spec, &jobs.Env{Workers: refOpts.Workers})
		return &status{Search: res}, err
	case serve.JobGrid:
		spec := *req.Grid
		res, err := jobs.RunGrid(ctx, &spec, &jobs.Env{Workers: refOpts.Workers})
		return &status{Grid: res}, err
	case serve.JobSort:
		spec := *req.Sort
		res, err := jobs.RunSort(ctx, &spec, &jobs.Env{Workers: refOpts.Workers})
		return &status{Sort: res}, err
	case serve.JobPipeline:
		spec := *req.Pipeline
		spec.Stages = append([]pipeline.StageSpec(nil), req.Pipeline.Stages...)
		res, err := pipeline.Run(ctx, &spec, &pipeline.Env{Workers: refOpts.Workers})
		return &status{Pipeline: res}, err
	}
	return nil, fmt.Errorf("no reference for job type %q", req.Type)
}

// arith evaluates the serving layer's arithmetic tree nodes.
func arith(op string, l, r int64) int64 {
	if op == "*" {
		return l * r
	}
	return l + r
}

// canonical projects a result onto the fields that are a function of the
// spec alone — not of placement, batching, memo hits or resumes.
func canonical(k kind, st *status) ([]byte, error) {
	var v any
	switch k {
	case kindAlign, kindAlignBanded:
		if st.Align != nil {
			a := st.Align
			v = []any{a.Names, a.Rows, a.Columns, a.Consensus}
		}
	case kindTree:
		if st.Tree != nil {
			v = []any{st.Tree.Value, st.Tree.Leaves}
		}
	case kindSearch:
		if s := st.Search; s != nil {
			// A search with no matches reads back as null or [] depending on
			// whether it crossed JSON; both mean none.
			var m []jobs.Match
			if len(s.Matches) > 0 {
				m = s.Matches
			}
			v = []any{m, s.Total, s.Seqs, s.Bases}
		}
	case kindGrid:
		if g := st.Grid; g != nil {
			v = []any{g.Rows, g.Cols, g.Sweeps, g.Checksum}
		}
	case kindSort:
		if s := st.Sort; s != nil {
			v = []any{s.N, s.Checksum, s.Sorted}
		}
	case kindPipeline:
		if p := st.Pipeline; p != nil {
			v = []any{p.Records, p.Output}
		}
	}
	if v == nil {
		return nil, fmt.Errorf("%s result missing", k)
	}
	return json.Marshal(v)
}
