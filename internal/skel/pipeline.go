package skel

import (
	"context"
	"sync"
)

// StreamStage is one stage of a streaming pipeline: it consumes records
// from in until the channel closes, sends results on out, and returns when
// done. Implementations must honor ctx when sending (select on ctx.Done())
// so an aborted pipeline never strands a stage blocked on a full channel.
// A stage may emit zero, one, or many records per input (filter, map,
// window), and the source stage receives an already-closed in.
type StreamStage[T any] func(ctx context.Context, in <-chan T, out chan<- T) error

// StreamPipeline runs the stages concurrently connected by bounded channels
// of the given depth (minimum 1): the stream-processing structure that
// Figure 1's producer/consumer program exemplifies at the language level,
// and the substrate for pipeline jobs. The bound is the backpressure
// contract — a slow downstream stage blocks its upstream once the buffer
// fills, so in-flight memory is O(stages × depth) regardless of stream
// length.
//
// The first stage's in is closed and empty (sources generate); the last
// stage's out is drained by the pipeline itself, so a final stage that
// ships records elsewhere can simply not send. On the first stage error
// the whole pipeline is cancelled; StreamPipeline waits for every stage
// goroutine to exit before returning, so no goroutine outlives the call.
func StreamPipeline[T any](ctx context.Context, depth int, stages ...StreamStage[T]) error {
	if len(stages) == 0 {
		return nil
	}
	if depth < 1 {
		depth = 1
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	source := make(chan T)
	close(source)
	var wg sync.WaitGroup
	cur := (<-chan T)(source)
	for _, st := range stages {
		st := st
		in := cur
		out := make(chan T, depth)
		waitGroupGo(&wg, func() {
			defer close(out)
			fail(st(cctx, in, out))
		})
		cur = out
	}
	// Drain the tail so the last stage never blocks; on cancellation the
	// stages stop sending and close their channels, ending the drain.
	for range cur {
	}
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		// Prefer the parent's error when the caller cancelled: the stage
		// errors are then just echoes of that cancellation.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return firstErr
	}
	return ctx.Err()
}

// ProducerConsumer is the native twin of the paper's Figure 1: a producer
// generates n items, a consumer acknowledges each one, and the two run in
// lock step over an unbuffered channel (synchronous communication). It
// returns the number of exchanges completed.
func ProducerConsumer(n int, produce func(i int) int, consume func(v int)) int {
	ch := make(chan int) // unbuffered: producer blocks until consumer takes
	ack := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			ch <- produce(i)
			<-ack // the paper's sync acknowledgment
		}
		close(ch)
	}()
	count := 0
	for v := range ch {
		consume(v)
		count++
		ack <- struct{}{}
	}
	return count
}
