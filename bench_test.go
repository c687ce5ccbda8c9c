package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/motifs"
	"repro/internal/parser"
	"repro/internal/skel"
	"repro/internal/strand"
	"repro/internal/term"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// E1 — Figure 1: producer/consumer stream communication.
// ---------------------------------------------------------------------------

const figure1Src = `
go(N) :- producer(N,Xs,sync), consumer(Xs).
producer(N,Xs,Sync) :- N > 0 | Xs := [X|Xs1], N1 is N - 1, producer(N1,Xs1,X).
producer(0,Xs,_) :- Xs := [].
consumer([X|Xs]) :- X := sync, consumer(Xs).
consumer([]).
`

// BenchmarkFigure1ProducerConsumer interprets the paper's Figure 1 program
// for 100 synchronous exchanges.
func BenchmarkFigure1ProducerConsumer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := term.NewHeap()
		prog := parser.MustParse(h, figure1Src)
		rt := strand.New(prog, h, strand.Options{Procs: 1, Seed: 1})
		rt.Spawn(term.NewCompound("go", term.Int(100)), 0)
		if _, err := rt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Native runs the goroutine twin of Figure 1.
func BenchmarkFigure1Native(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := skel.ProducerConsumer(100, func(i int) int { return i }, func(int) {})
		if n != 100 {
			b.Fatal("wrong exchange count")
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — Figure 2: arithmetic tree reduction under Tree-Reduce-1.
// ---------------------------------------------------------------------------

// BenchmarkTreeReduce1Strand reduces trees of increasing size through the
// full composed motif on the simulator.
func BenchmarkTreeReduce1Strand(b *testing.B) {
	for _, leaves := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			tree := workload.IntTree(leaves, workload.ShapeRandom, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := motifs.RunTreeReduce1(motifs.ArithmeticEvalSrc, tree,
					motifs.RunConfig{Procs: 4, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E5/§3.5 — Tree-Reduce-2 with pre-labeled trees.
// ---------------------------------------------------------------------------

// BenchmarkTreeReduce2Strand reduces trees through Tree-Reduce-2.
func BenchmarkTreeReduce2Strand(b *testing.B) {
	for _, leaves := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			tree := workload.IntTree(leaves, workload.ShapeRandom, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := motifs.RunTreeReduce2(motifs.ArithmeticEvalSrc, tree,
					motifs.SiblingLabels, motifs.RunConfig{Procs: 4, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabelTree times Tree-Reduce-2's preprocessing step.
func BenchmarkLabelTree(b *testing.B) {
	tree := workload.IntTree(1024, workload.ShapeRandom, 7)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := motifs.LabelTree(tree, 8, motifs.SiblingLabels, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E4/E8 — Figure 5/6: motif application and composition.
// ---------------------------------------------------------------------------

// BenchmarkMotifApply times the full Tree-Reduce-1 composition pipeline
// (three transformations plus linking), the paper's "automatically applied
// transformations can speed the development process" machinery.
func BenchmarkMotifApply(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := term.NewHeap()
		app := parser.MustParse(h, motifs.ArithmeticEvalSrc)
		comp := core.Compose(motifs.Server(), motifs.Rand("run/2"), motifs.Tree1())
		if _, err := comp.ApplyTo(app, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse times the language front end on the Tree-Reduce-2 library.
func BenchmarkParse(b *testing.B) {
	h := term.NewHeap()
	app := parser.MustParse(h, motifs.ArithmeticEvalSrc)
	out, err := motifs.TreeReduce2().ApplyTo(app, h)
	if err != nil {
		b.Fatal(err)
	}
	src := out.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(term.NewHeap(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E6 — random mapping balance.
// ---------------------------------------------------------------------------

// BenchmarkRandomMappingBalance runs one balance measurement (256 leaves,
// 8 processors, uniform cost).
func BenchmarkRandomMappingBalance(b *testing.B) {
	tree := workload.IntTree(256, workload.ShapeRandom, 7)
	for i := 0; i < b.N; i++ {
		cost := workload.UniformCost(20)
		_, res, err := motifs.RunTreeReduce1(motifs.ArithmeticEvalSrc, tree,
			motifs.RunConfig{Procs: 8, Seed: 7, EvalCost: workload.GoalCostFn(cost)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.LoadImbalance() > 3 {
			b.Fatalf("implausible imbalance %f", res.Metrics.LoadImbalance())
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — static vs dynamic allocation.
// ---------------------------------------------------------------------------

// BenchmarkStaticVsDynamic times the scheduling simulation under the
// heavy-tailed cost model.
func BenchmarkStaticVsDynamic(b *testing.B) {
	m := workload.ParetoCost(1.3, 20, 7)
	costs := make([]int64, 512)
	for i := range costs {
		costs[i] = m.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := exp.SchedSim(costs, 8, true)
		dy := exp.SchedSim(costs, 8, false)
		if dy > st {
			b.Fatal("dynamic should not lose under pareto costs")
		}
	}
}

// BenchmarkFarm contrasts dynamic and static farms natively on skewed work.
func BenchmarkFarm(b *testing.B) {
	tasks := make([]int, 256)
	rng := rand.New(rand.NewSource(7))
	for i := range tasks {
		tasks[i] = 1 << (rng.Intn(12) + 4)
	}
	spin := func(n int) int {
		s := 0
		for i := 0; i < n; i++ {
			s += i
		}
		return s
	}
	for _, static := range []bool{false, true} {
		name := "dynamic"
		if static {
			name = "static"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := skel.Farm(context.Background(), tasks, spin, skel.FarmOptions{Workers: 4, Static: static}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — peak memory (live evaluations).
// ---------------------------------------------------------------------------

// BenchmarkPeakMemoryTR1vsTR2 measures both motifs with the watch gauge on.
func BenchmarkPeakMemoryTR1vsTR2(b *testing.B) {
	tree := workload.IntTree(64, workload.ShapeRandom, 7)
	cfg := motifs.RunConfig{Procs: 4, Seed: 7, Watch: []string{"eval/4"}}
	b.Run("tree-reduce-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := motifs.RunTreeReduce1(motifs.ArithmeticEvalSrc, tree, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-reduce-2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := motifs.RunTreeReduce2(motifs.ArithmeticEvalSrc, tree, motifs.SiblingLabels, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E10 — skeleton motif areas.
// ---------------------------------------------------------------------------

// BenchmarkSkeletonTreeReduce times the native tree reduction per mapper.
func BenchmarkSkeletonTreeReduce(b *testing.B) {
	tree := workload.SkelTree(workload.IntTree(4096, workload.ShapeRandom, 7))
	eval := func(op string, l, r int64) int64 {
		if op == "+" {
			return l + r
		}
		return l * r
	}
	for _, m := range []skel.Mapper{skel.MapRandom, skel.MapRoundRobin, skel.MapStatic} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := skel.TreeReduce(context.Background(), tree, eval, skel.ReduceOptions{Workers: 4, Mapper: m, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkeletonSearch times or-parallel 8-queens.
func BenchmarkSkeletonSearch(b *testing.B) {
	q := skel.NQueens{N: 8}
	for i := 0; i < b.N; i++ {
		sols, _, err := skel.Search[skel.NQState](context.Background(), q, q.Start(), skel.SearchOptions{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(sols) != 92 {
			b.Fatal("wrong solution count")
		}
	}
}

// BenchmarkSkeletonJacobi times 100 sweeps of a 130x130 grid.
func BenchmarkSkeletonJacobi(b *testing.B) {
	g := skel.NewGrid(130, 130)
	for c := 0; c < 130; c++ {
		g.Set(0, c, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := skel.Jacobi(context.Background(), g, skel.JacobiOptions{Workers: 4, Iterations: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeletonMergeSort times parallel mergesort of 100k ints.
func BenchmarkSkeletonMergeSort(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]int, 100_000)
	for i := range xs {
		xs[i] = rng.Int()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := skel.MergeSort(context.Background(), xs, func(a, b int) bool { return a < b }, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeletonParReduce times the flat parallel reduction of 1M ints.
func BenchmarkSkeletonParReduce(b *testing.B) {
	xs := make([]int64, 1_000_000)
	for i := range xs {
		xs[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skel.ParReduce(xs, 0, func(a, x int64) int64 { return a + x }, 8)
	}
}

// BenchmarkSchedulerStrand times the scheduler motif on the simulator.
func BenchmarkSchedulerStrand(b *testing.B) {
	var tasks []term.Term
	for i := 1; i <= 32; i++ {
		tasks = append(tasks, term.NewCompound("sq", term.Int(int64(i))))
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := motifs.RunScheduler("task(sq(N), R) :- R is N * N.", tasks,
			motifs.RunConfig{Procs: 4, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E11 — sequence alignment application.
// ---------------------------------------------------------------------------

// BenchmarkAlignmentNative times the end-to-end native alignment.
func BenchmarkAlignmentNative(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fam, err := bio.Evolve(16, 100, 0.08, 0.01, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := bio.AlignFamily(context.Background(), fam, skel.ReduceOptions{
					Workers: workers, Mapper: skel.MapRandom, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignmentStrand times the simulated motif-level alignment.
func BenchmarkAlignmentStrand(b *testing.B) {
	fam, err := bio.Evolve(8, 40, 0.08, 0.01, 7)
	if err != nil {
		b.Fatal(err)
	}
	guide, err := bio.GuideTree(fam)
	if err != nil {
		b.Fatal(err)
	}
	seqTree := bio.SeqTree(guide, fam)
	cfg := motifs.RunConfig{
		Procs:   4,
		Seed:    7,
		Natives: map[string]strand.NativeFn{"eval/4": bio.EvalNative()},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := motifs.RunTreeReduce2("", seqTree, motifs.SiblingLabels, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairAlign times one pairwise Needleman–Wunsch (length 200).
func BenchmarkPairAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s1, s2 := bio.RandomSeq(200, rng), bio.RandomSeq(200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bio.PairAlign(s1, s2)
	}
}

// ---------------------------------------------------------------------------
// Language-level motif-area benchmarks (E10b).
// ---------------------------------------------------------------------------

// BenchmarkSearchMotifStrand times the five-motif or-parallel search
// composition end to end (fib-strings of length 7).
func BenchmarkSearchMotifStrand(b *testing.B) {
	app := `
goalp(s(0, _, _), T) :- T := true.
goalp(s(K, _, _), T) :- K > 0 | T := false.
expand(s(K, Last, Acc), Cs) :- K > 0 | K1 is K - 1, exp1(K1, Last, Acc, Cs).
exp1(K1, 1, Acc, Cs) :- Cs := [s(K1, 0, [0|Acc])].
exp1(K1, 0, Acc, Cs) :- Cs := [s(K1, 0, [0|Acc]), s(K1, 1, [1|Acc])].
`
	start := term.NewCompound("s", term.Int(7), term.Int(0), term.EmptyList)
	for i := 0; i < b.N; i++ {
		sols, _, err := motifs.RunSearch(app, start, motifs.RunConfig{Procs: 4, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if len(sols) != 34 {
			b.Fatalf("solutions = %d", len(sols))
		}
	}
}

// BenchmarkDCMotifStrand times the divide-and-conquer motif sorting 24 ints.
func BenchmarkDCMotifStrand(b *testing.B) {
	app := `
leafp([], T) :- T := true.
leafp([_], T) :- T := true.
leafp([_,_|_], T) :- T := false.
trivial(L, R) :- R := L.
split([], A, B) :- A := [], B := [].
split([X], A, B) :- A := [X], B := [].
split([X,Y|L], A, B) :- A := [X|A1], B := [Y|B1], split(L, A1, B1).
combine([], Ys, R) :- R := Ys.
combine([X|Xs], [], R) :- R := [X|Xs].
combine([X|Xs], [Y|Ys], R) :- X =< Y | R := [X|R1], combine(Xs, [Y|Ys], R1).
combine([X|Xs], [Y|Ys], R) :- X > Y | R := [Y|R1], combine([X|Xs], Ys, R1).
`
	elems := make([]term.Term, 24)
	for i := range elems {
		elems[i] = term.Int(int64((i * 37) % 100))
	}
	problem := term.MkList(elems...)
	for i := 0; i < b.N; i++ {
		if _, _, err := motifs.RunDC(app, problem, motifs.RunConfig{Procs: 4, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridMotifStrand times the grid motif: 4 blocks × 4 cells,
// 8 sweeps.
func BenchmarkGridMotifStrand(b *testing.B) {
	blocks := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}}
	for i := 0; i < b.N; i++ {
		if _, _, err := motifs.RunGrid(motifs.JacobiRelaxSrc, blocks, 8, 0,
			motifs.RunConfig{Procs: 4, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeMotifStrand times a 4-stage pipeline over a 32-item stream.
func BenchmarkPipeMotifStrand(b *testing.B) {
	app := `
stage(I, [X|Xs], Out) :- Y is X + I, Out := [Y|Out1], stage(I, Xs, Out1).
stage(_, [], Out) :- Out := [].
`
	items := make([]term.Term, 32)
	for i := range items {
		items[i] = term.Int(int64(i))
	}
	for i := 0; i < b.N; i++ {
		_, _, err := motifs.ApplyAndRun(motifs.Pipe(), app,
			func(h *term.Heap) (term.Term, *term.Var, error) {
				v := h.NewVar("Out")
				return motifs.PipeGoal(4, items, v), v, nil
			}, motifs.RunConfig{Procs: 4, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSchedulerStrand contrasts batch sizes on the simulator.
func BenchmarkBatchSchedulerStrand(b *testing.B) {
	var tasks []term.Term
	for i := 1; i <= 32; i++ {
		tasks = append(tasks, term.NewCompound("sq", term.Int(int64(i))))
	}
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := motifs.RunBatchScheduler("task(sq(N), R) :- R is N * N.",
					tasks, batch, motifs.RunConfig{Procs: 4, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShortCircuitApply times the termination-detection transformation
// plus the full TerminatingRandom composition pipeline.
func BenchmarkShortCircuitApply(b *testing.B) {
	const src = `
spray(0).
spray(K) :- K > 0 | work(K)@random, K1 is K - 1, spray(K1).
work(_).
`
	applier, err := motifs.TerminatingRandom("spray/1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h := term.NewHeap()
		app := parser.MustParse(h, src)
		if _, err := applier.ApplyTo(app, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexingAblation contrasts rule selection with and without
// first-argument indexing on a table-lookup-heavy program.
func BenchmarkIndexingAblation(b *testing.B) {
	var src string
	for i := 0; i < 64; i++ {
		src += fmt.Sprintf("table(%d, R) :- R := %d.\n", i, i*i)
	}
	src += `
sum(0, Acc, R) :- R := Acc.
sum(N, Acc, R) :- N > 0 | table(N, V), Acc1 is Acc + V, N1 is N - 1, sum(N1, Acc1, R).
`
	for _, disable := range []bool{false, true} {
		name := "indexed"
		if disable {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := term.NewHeap()
				prog := parser.MustParse(h, src)
				rt := strand.New(prog, h, strand.Options{Procs: 1, Seed: 1, DisableIndexing: disable})
				r := h.NewVar("R")
				rt.Spawn(term.NewCompound("sum", term.Int(63), term.Int(0), r), 0)
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkStealingVsFarm contrasts the decentralized work-stealing
// pool with the manager-style dynamic farm on an irregular recursive
// workload (range summation with uneven splits).
func BenchmarkWorkStealingVsFarm(b *testing.B) {
	type span struct{ lo, hi int64 }
	leafWork := func(s span) int64 {
		var acc int64
		for i := s.lo; i < s.hi; i++ {
			acc += i % 7
		}
		return acc
	}
	// Pre-split the range unevenly for the farm (it cannot spawn).
	var chunks []span
	var split func(s span, depth int)
	split = func(s span, depth int) {
		if depth == 0 || s.hi-s.lo < 2000 {
			chunks = append(chunks, s)
			return
		}
		mid := s.lo + (s.hi-s.lo)/3
		split(span{s.lo, mid}, depth-1)
		split(span{mid, s.hi}, depth-1)
	}
	split(span{0, 1_000_000}, 12)

	b.Run("farm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := skel.Farm(context.Background(), chunks, leafWork, skel.FarmOptions{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("work-stealing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skel.WorkStealing([]span{{0, 1_000_000}}, func(s span, spawn func(span)) {
				if s.hi-s.lo < 2000 {
					leafWork(s)
					return
				}
				mid := s.lo + (s.hi-s.lo)/3
				spawn(span{s.lo, mid})
				spawn(span{mid, s.hi})
			}, skel.StealOptions{Workers: 4, Seed: 7})
		}
	})
}

// BenchmarkHierSchedulerStrand times the two-level scheduler end to end.
func BenchmarkHierSchedulerStrand(b *testing.B) {
	var tasks []term.Term
	for i := 1; i <= 24; i++ {
		tasks = append(tasks, term.NewCompound("t", term.Int(int64(i))))
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := motifs.RunHierScheduler("task(t(N), R) :- R is N.",
			tasks, 2, motifs.RunConfig{Procs: 8, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeStreams times the merge/3 primitive on two 200-item
// streams.
func BenchmarkMergeStreams(b *testing.B) {
	const src = `
main(Z) :- gen(1, 200, A), gen(201, 400, B), merge(A, B, Z).
gen(I, N, S) :- I =< N | S := [I|S1], I1 is I + 1, gen(I1, N, S1).
gen(I, N, S) :- I > N | S := [].
`
	for i := 0; i < b.N; i++ {
		h := term.NewHeap()
		prog := parser.MustParse(h, src)
		rt := strand.New(prog, h, strand.Options{Procs: 1, Seed: 1})
		z := h.NewVar("Z")
		rt.Spawn(term.NewCompound("main", z), 0)
		if _, err := rt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
