package skel

import "sync"

// ParReduce folds xs with an associative operator op in parallel: each
// worker folds a contiguous block, then the partial results are folded
// sequentially (the block count equals the worker count, so the final fold
// is cheap). zero must be op's identity. This is the flat form of the
// paper's tree-reduction motif for associative operators.
func ParReduce[T any](xs []T, zero T, op func(a, b T) T, workers int) T {
	if workers < 1 {
		workers = 1
	}
	n := len(xs)
	if n == 0 {
		return zero
	}
	if workers > n {
		workers = n
	}
	partial := make([]T, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		lo, hi := w*n/workers, (w+1)*n/workers
		waitGroupGo(&wg, func() {
			acc := zero
			for i := lo; i < hi; i++ {
				acc = op(acc, xs[i])
			}
			partial[w] = acc
		})
	}
	wg.Wait()
	acc := zero
	for _, pv := range partial {
		acc = op(acc, pv)
	}
	return acc
}
