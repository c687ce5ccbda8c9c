package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bio"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// Phases of one run. Each phase draws its own job stream, so content is
// unique across phases and warm-up never pre-computes a measured job.
const (
	phaseWarmup   = 1
	phaseMeasure  = 2
	phaseTraced   = 3
	warmupSeconds = 1
)

// job is one generated submission: the request and the kind it was drawn
// as. specKey is the canonical JSON of the request, the identity used for
// reference caching and repeat counting.
type job struct {
	kind    kind
	req     serve.JobRequest
	specKey string
}

// stream is the job stream of one phase: the specs in submission order and,
// for an open loop, when each one is due relative to the phase start.
type stream struct {
	jobs []job
	due  []time.Duration // nil for a closed loop
}

// streamSeed derives the random source of one phase of one run.
func streamSeed(seed int64, phase int) int64 {
	return seed*1_000_003 + int64(phase)*7_919
}

// genStream builds a phase's job stream from the run seed alone. An open
// loop sends exactly rate×seconds jobs, placed as a Poisson process
// conditioned on that count (sorted uniform times), so every run offers the
// same number of jobs. A closed loop gets enough specs to cover any
// plausible completion rate; it stops at the deadline, not at the end of
// the list.
func genStream(w *workload, seed int64, phase int, seconds float64) stream {
	rng := rand.New(rand.NewSource(streamSeed(seed, phase)))
	n := int(w.rate*seconds + 0.5)
	if w.k > 0 {
		n = int(2000 * seconds)
	}
	if n < 1 {
		n = 1
	}
	var pool []job
	var zipf *rand.Zipf
	if w.zipfPool > 0 {
		// The pool is the same in every phase of a run (it depends on the
		// seed only), so warm-up fills the caches the measured phase reads.
		prng := rand.New(rand.NewSource(streamSeed(seed, 0)))
		pool = make([]job, w.zipfPool)
		for i := range pool {
			pool[i] = genJob(w, prng, seed<<20|int64(i))
		}
		zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.zipfPool-1))
	}
	s := stream{jobs: make([]job, n)}
	for i := range s.jobs {
		if zipf != nil {
			s.jobs[i] = pool[zipf.Uint64()]
			continue
		}
		// Unique content: the spec seed encodes run seed, phase and index.
		s.jobs[i] = genJob(w, rng, seed<<32|int64(phase)<<24|int64(i))
	}
	if w.k == 0 {
		s.due = make([]time.Duration, n)
		span := time.Duration(seconds * float64(time.Second))
		for i := range s.due {
			s.due[i] = time.Duration(rng.Int63n(int64(span)))
		}
		sort.Slice(s.due, func(a, b int) bool { return s.due[a] < s.due[b] })
	}
	return s
}

// pickKind draws a kind from the workload's mix weights.
func pickKind(w *workload, rng *rand.Rand) kind {
	total := 0
	for _, k := range kinds {
		total += w.mix[k]
	}
	r := rng.Intn(total)
	for _, k := range kinds {
		if r < w.mix[k] {
			return k
		}
		r -= w.mix[k]
	}
	panic("perfbench: empty job mix")
}

// genJob draws one job of the workload's mix. specSeed seeds the job's own
// content, so distinct specSeeds give distinct content.
func genJob(w *workload, rng *rand.Rand, specSeed int64) job {
	k := pickKind(w, rng)
	req := serve.JobRequest{}
	switch k {
	case kindAlign, kindAlignBanded:
		// 6×48 stays under the serving layer's batching threshold, so these
		// jobs exercise the small-job batch path.
		a := &bio.AlignJob{N: 6, Len: 48, Seed: specSeed}
		if k == kindAlignBanded {
			a.Band = 32
		}
		req.Type, req.Align = serve.JobAlign, a
	case kindTree:
		req.Type = serve.JobTree
		req.Tree = &serve.TreeSpec{Leaves: 16, Seed: specSeed, NodeCostMicros: w.treeNodeCostMicros}
	case kindSearch:
		// Exhaustive, never FirstOnly: the result is deterministic, so a
		// reference run can check it.
		req.Type = serve.JobSearch
		req.Search = &jobs.SearchSpec{
			Pattern: randomPattern(rng, 6), Seqs: 8, SeqLen: 256,
			Seed: specSeed, MaxMismatches: 1,
		}
	case kindGrid:
		req.Type = serve.JobGrid
		// Grid specs carry no seed; a random hot value keeps content unique.
		req.Grid = &jobs.GridSpec{Rows: 24, Cols: 24 + rng.Intn(8), Iterations: 150, Hot: 50 + 50*rng.Float64()}
	case kindSort:
		req.Type = serve.JobSort
		req.Sort = &jobs.SortSpec{N: 8192, Seed: specSeed}
	case kindPipeline:
		req.Type = serve.JobPipeline
		req.Pipeline = &pipeline.Spec{
			N: 8, Len: 40, Seed: specSeed,
			Stages: []pipeline.StageSpec{
				{Name: pipeline.StageFilter, MinLen: 1},
				{Name: pipeline.StageAlign},
				{Name: pipeline.StageReduce, Group: 4},
				{Name: pipeline.StageReport},
			},
		}
	}
	if err := req.Validate(); err != nil {
		panic("perfbench: generated an invalid job: " + err.Error())
	}
	key, err := json.Marshal(req)
	if err != nil {
		panic("perfbench: marshal job: " + err.Error())
	}
	return job{kind: k, req: req, specKey: string(key)}
}

// randomPattern draws a search pattern over the RNA alphabet.
func randomPattern(rng *rand.Rand, n int) string {
	const bases = "ACGU"
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[rng.Intn(len(bases))]
	}
	return string(b)
}
