package skel

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intEval(op string, l, r int64) int64 {
	switch op {
	case "+":
		return l + r
	case "*":
		return l * r
	default:
		panic("bad op")
	}
}

func randomTree(n int, rng *rand.Rand) *Tree[int64] {
	if n == 1 {
		return NewLeaf(int64(rng.Intn(3) + 1))
	}
	k := 1 + rng.Intn(n-1)
	op := "+"
	if rng.Intn(2) == 0 {
		op = "*"
	}
	return NewNode(op, randomTree(k, rng), randomTree(n-k, rng))
}

func TestTreeShapeHelpers(t *testing.T) {
	tr := NewNode("+", NewLeaf[int64](1), NewNode("*", NewLeaf[int64](2), NewLeaf[int64](3)))
	if tr.Nodes() != 5 || tr.Leaves() != 3 || tr.Height() != 3 {
		t.Fatalf("nodes=%d leaves=%d height=%d", tr.Nodes(), tr.Leaves(), tr.Height())
	}
}

func TestSeqReduce(t *testing.T) {
	tr := NewNode("*",
		NewNode("*", NewLeaf[int64](3), NewLeaf[int64](2)),
		NewNode("+", NewNode("+", NewLeaf[int64](2), NewLeaf[int64](1)), NewLeaf[int64](1)))
	if got := SeqReduce(tr, intEval); got != 24 {
		t.Fatalf("SeqReduce = %d, want 24", got)
	}
}

func TestTreeReduceMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(1+rng.Intn(200), rng)
		want := SeqReduce(tr, intEval)
		for _, m := range []Mapper{MapRandom, MapRoundRobin, MapStatic} {
			for _, w := range []int{1, 2, 4, 7} {
				got, _, err := TreeReduce(context.Background(), tr, intEval, ReduceOptions{Workers: w, Mapper: m, Seed: int64(trial)})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d mapper=%s workers=%d: got %d want %d", trial, m, w, got, want)
				}
			}
		}
	}
}

func TestTreeReduceLeafOnly(t *testing.T) {
	got, stats, err := TreeReduce(context.Background(), NewLeaf[int64](9), intEval, ReduceOptions{Workers: 4})
	if err != nil || got != 9 {
		t.Fatalf("got %d, %v", got, err)
	}
	if stats.TotalUnits() != 0 {
		t.Fatalf("leaf reduce did units: %d", stats.TotalUnits())
	}
}

func TestTreeReduceNilTree(t *testing.T) {
	if _, _, err := TreeReduce[int64](context.Background(), nil, intEval, ReduceOptions{Workers: 1}); err == nil {
		t.Fatal("expected error on nil tree")
	}
}

func TestTreeReduceUnitAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTree(100, rng)
	_, stats, err := TreeReduce(context.Background(), tr, intEval, ReduceOptions{Workers: 4, Mapper: MapRandom, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	internal := int64(tr.Nodes() - tr.Leaves())
	if stats.TotalUnits() != internal {
		t.Fatalf("units = %d, want %d internal nodes", stats.TotalUnits(), internal)
	}
}

func TestTreeReduceStaticFewerCrossings(t *testing.T) {
	// Static partitioning keeps subtrees together, so it must move fewer
	// values across workers than random mapping on a large tree.
	rng := rand.New(rand.NewSource(4))
	tr := randomTree(2000, rng)
	_, stRand, err := TreeReduce(context.Background(), tr, intEval, ReduceOptions{Workers: 8, Mapper: MapRandom, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, stStatic, err := TreeReduce(context.Background(), tr, intEval, ReduceOptions{Workers: 8, Mapper: MapStatic, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if stStatic.CrossMessages >= stRand.CrossMessages {
		t.Fatalf("static crossings %d >= random crossings %d",
			stStatic.CrossMessages, stRand.CrossMessages)
	}
}

func TestFarmDynamicAndStatic(t *testing.T) {
	tasks := make([]int, 50)
	for i := range tasks {
		tasks[i] = i
	}
	sq := func(x int) int { return x * x }
	for _, static := range []bool{false, true} {
		got, stats, err := Farm(context.Background(), tasks, sq, FarmOptions{Workers: 4, Static: static})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("static=%v: got[%d] = %d", static, i, v)
			}
		}
		if stats.TotalUnits() != 50 {
			t.Fatalf("units = %d", stats.TotalUnits())
		}
		if stats.PeakConcurrent > 4 {
			t.Fatalf("peak concurrency %d exceeds workers", stats.PeakConcurrent)
		}
	}
}

func TestFarmEmpty(t *testing.T) {
	got, _, err := Farm(context.Background(), nil, func(x int) int { return x }, FarmOptions{Workers: 3})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestFarmZeroWorkersClamped(t *testing.T) {
	got, _, err := Farm(context.Background(), []int{1, 2}, func(x int) int { return x + 1 }, FarmOptions{})
	if err != nil || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestHierarchicalFarm(t *testing.T) {
	tasks := make([]int, 40)
	for i := range tasks {
		tasks[i] = i
	}
	got, stats, err := HierarchicalFarm(context.Background(), tasks, func(x int) int { return 2 * x }, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if len(stats.UnitsPerWorker) != 6 {
		t.Fatalf("worker slots = %d", len(stats.UnitsPerWorker))
	}
	if stats.TotalUnits() != 40 {
		t.Fatalf("units = %d", stats.TotalUnits())
	}
}

func TestHierarchicalFarmBadShape(t *testing.T) {
	if _, _, err := HierarchicalFarm(context.Background(), []int{1}, func(x int) int { return x }, 0, 3); err == nil {
		t.Fatal("expected error")
	}
}

func TestProducerConsumerFigure1(t *testing.T) {
	var consumed []int
	n := ProducerConsumer(4,
		func(i int) int { return i * i },
		func(v int) { consumed = append(consumed, v) })
	if n != 4 {
		t.Fatalf("exchanges = %d", n)
	}
	for i, v := range consumed {
		if v != i*i {
			t.Fatalf("consumed = %v", consumed)
		}
	}
}

func TestDivideConquerFibonacci(t *testing.T) {
	fib := func(parallel int) func(n int) int {
		return func(n int) int {
			v, err := DivideConquer(context.Background(), n,
				func(n int) bool { return n < 2 },
				func(n int) int { return n },
				func(n int) []int { return []int{n - 1, n - 2} },
				func(_ int, rs []int) int { return rs[0] + rs[1] },
				DCOptions{Parallel: parallel, Depth: 3})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	seq, par := fib(0), fib(4)
	for n := 0; n <= 15; n++ {
		if seq(n) != par(n) {
			t.Fatalf("fib(%d): seq %d != par %d", n, seq(n), par(n))
		}
	}
	if got := par(15); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
}

func TestMergeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(500)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(1000)
		}
		got, err := MergeSort(context.Background(), xs, func(a, b int) bool { return a < b }, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("length %d != %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sorted mismatch at %d", trial, i)
			}
		}
	}
}

func TestMergeSortStability(t *testing.T) {
	type kv struct{ k, seq int }
	xs := []kv{{1, 0}, {0, 1}, {1, 2}, {0, 3}, {1, 4}}
	got, err := MergeSort(context.Background(), xs, func(a, b kv) bool { return a.k < b.k }, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Equal keys must preserve original order (merge takes from a first).
	var zeroSeqs, oneSeqs []int
	for _, e := range got {
		if e.k == 0 {
			zeroSeqs = append(zeroSeqs, e.seq)
		} else {
			oneSeqs = append(oneSeqs, e.seq)
		}
	}
	if !sort.IntsAreSorted(zeroSeqs) || !sort.IntsAreSorted(oneSeqs) {
		t.Fatalf("unstable: %v", got)
	}
}

func TestNQueensCounts(t *testing.T) {
	// Known solution counts for n-queens.
	want := map[int]int{4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
	for n, count := range want {
		q := NQueens{N: n}
		sols, _, err := Search[NQState](context.Background(), q, q.Start(), SearchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != count {
			t.Fatalf("n=%d: %d solutions, want %d", n, len(sols), count)
		}
	}
}

func TestNQueensFirstOnly(t *testing.T) {
	q := NQueens{N: 8}
	sols, _, err := Search[NQState](context.Background(), q, q.Start(), SearchOptions{Workers: 4, FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("solutions = %d", len(sols))
	}
	if !q.IsGoal(sols[0]) {
		t.Fatal("returned non-goal state")
	}
}

func TestNQueensNoSolution(t *testing.T) {
	q := NQueens{N: 3}
	sols, _, err := Search[NQState](context.Background(), q, q.Start(), SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Fatalf("3-queens should have no solutions, got %d", len(sols))
	}
}

func TestSearchWorkerAccounting(t *testing.T) {
	q := NQueens{N: 8}
	_, stats, err := Search[NQState](context.Background(), q, q.Start(), SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUnits() == 0 {
		t.Fatal("no units recorded")
	}
}

func TestJacobiConvergesToLaplace(t *testing.T) {
	// Dirichlet problem: top boundary at 1, others at 0. The discrete
	// harmonic solution is reproduced by relaxation; check interior values
	// are strictly between boundary extremes and the sweep count stops at
	// tolerance.
	g := NewGrid(18, 18)
	for c := 0; c < 18; c++ {
		g.Set(0, c, 1.0)
	}
	out, sweeps, delta, err := Jacobi(context.Background(), g, JacobiOptions{Workers: 4, Iterations: 10000, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if sweeps == 10000 {
		t.Fatalf("did not converge (delta %g)", delta)
	}
	mid := out.At(9, 9)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("interior value %g outside (0,1)", mid)
	}
	// Symmetry: column 9 and column 8 mirror around the vertical axis.
	if math.Abs(out.At(9, 8)-out.At(9, 9)) > 0.05 {
		t.Fatalf("asymmetric solution: %g vs %g", out.At(9, 8), out.At(9, 9))
	}
}

func TestJacobiWorkerCountInvariance(t *testing.T) {
	base := NewGrid(12, 12)
	for c := 0; c < 12; c++ {
		base.Set(0, c, 2.0)
		base.Set(11, c, -1.0)
	}
	run := func(workers int) *Grid {
		out, _, _, err := Jacobi(context.Background(), base, JacobiOptions{Workers: workers, Iterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	g1, g4 := run(1), run(4)
	for i := range g1.Data {
		if math.Abs(g1.Data[i]-g4.Data[i]) > 1e-12 {
			t.Fatalf("jacobi differs with worker count at %d: %g vs %g", i, g1.Data[i], g4.Data[i])
		}
	}
}

func TestJacobiTooSmall(t *testing.T) {
	if _, _, _, err := Jacobi(context.Background(), NewGrid(2, 5), JacobiOptions{Workers: 1, Iterations: 1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestParReduce(t *testing.T) {
	xs := make([]int64, 1000)
	var want int64
	for i := range xs {
		xs[i] = int64(i)
		want += int64(i)
	}
	for _, w := range []int{1, 3, 8, 2000} {
		got := ParReduce(xs, 0, func(a, b int64) int64 { return a + b }, w)
		if got != want {
			t.Fatalf("workers=%d: got %d want %d", w, got, want)
		}
	}
	if ParReduce(nil, int64(7), func(a, b int64) int64 { return a + b }, 4) != 7 {
		t.Fatal("empty reduce should return zero value")
	}
}

// Property: tree reduction with max is order-insensitive and matches the
// slice maximum.
func TestPropTreeReduceMax(t *testing.T) {
	f := func(raw []int16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		leaves := make([]*Tree[int64], len(raw))
		var want int64 = math.MinInt64
		for i, x := range raw {
			leaves[i] = NewLeaf(int64(x))
			if int64(x) > want {
				want = int64(x)
			}
		}
		// Build a random-shaped tree over the leaves.
		for len(leaves) > 1 {
			i := rng.Intn(len(leaves) - 1)
			n := NewNode("max", leaves[i], leaves[i+1])
			leaves = append(leaves[:i], append([]*Tree[int64]{n}, leaves[i+2:]...)...)
		}
		got, _, err := TreeReduce(context.Background(), leaves[0], func(op string, l, r int64) int64 {
			if l > r {
				return l
			}
			return r
		}, ReduceOptions{Workers: 4, Mapper: MapRandom, Seed: seed})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
