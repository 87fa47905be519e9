// Package spsc provides the bounded single-producer single-consumer queue
// that connects an application's main thread to the CDC thread (paper §4.2).
//
// Because exactly one goroutine enqueues (the MPI/main thread) and exactly
// one dequeues (the CDC encoder thread), the ring buffer needs no mutual
// exclusion: the producer owns the tail index, the consumer owns the head
// index, and each observes the other's index with an atomic load. This
// mirrors the paper's observe-queue and replay-queue design.
//
// The queue is bounded: Enqueue blocks (spinning, then yielding) when the
// ring is full, which is the backpressure behaviour §6.2 describes — in
// practice the CDC thread drains far faster than the application produces,
// so the block is never expected to occur.
package spsc

import (
	"runtime"
	"sync/atomic"
	"time"

	"cdcreplay/internal/obs"
)

// Queue is a bounded SPSC ring buffer. The zero value is not usable; call
// New.
type Queue[T any] struct {
	buf  []T
	mask uint64

	// head and tail are kept on separate cache lines to avoid false
	// sharing between the producer and consumer cores.
	head   atomic.Uint64 // next slot the consumer will read
	_      [7]uint64
	tail   atomic.Uint64 // next slot the producer will write
	_      [7]uint64
	closed atomic.Bool
	// idleLoops counts empty-queue wait iterations across both endpoints,
	// for tests asserting the idle spin is bounded.
	idleLoops atomic.Uint64

	ins Instruments
}

// Instruments are the queue's optional obs hooks. Nil instruments (the
// default, and everything a nil obs.Registry hands out) cost one pointer
// check per operation on the hot path.
type Instruments struct {
	// Enqueued counts accepted items.
	Enqueued *obs.Counter
	// Stalls counts blocking Enqueue calls that found the ring full.
	Stalls *obs.Counter
	// Depth samples the buffered item count at each enqueue; its
	// high-water mark is the peak backlog the consumer let build up.
	Depth *obs.Gauge
}

// Instrument attaches obs instruments. Call before the queue is in use.
func (q *Queue[T]) Instrument(ins Instruments) { q.ins = ins }

// Idle backoff thresholds for a blocked endpoint: it spins hot for
// spinBeforeYield consecutive unproductive iterations (lowest latency when
// the other endpoint is mid-operation), yields the scheduler slot up to
// yieldBeforeNap iterations, then sleeps with a nap growing 1µs per
// iteration, capped at maxNap — so an idle endpoint consumes a bounded
// number of scheduler slots instead of busy-spinning forever.
const (
	spinBeforeYield = 64
	yieldBeforeNap  = 1024
	maxNap          = 200 * time.Microsecond
)

// backoff performs the wait step appropriate for the i-th consecutive
// unproductive iteration.
func (q *Queue[T]) backoff(i int) {
	q.idleLoops.Add(1)
	switch {
	case i < spinBeforeYield:
		// Hot spin: the other endpoint is probably mid-operation.
	case i < yieldBeforeNap:
		runtime.Gosched()
	default:
		nap := time.Duration(i-yieldBeforeNap+1) * time.Microsecond
		if nap > maxNap {
			nap = maxNap
		}
		time.Sleep(nap)
	}
}

// New returns a queue with capacity rounded up to the next power of two
// (minimum 2).
func New[T any](capacity int) *Queue[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Queue[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap reports the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Len reports the number of buffered items. It is approximate when both
// ends are active concurrently but exact for either endpoint's own view.
func (q *Queue[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// tryEnqueue is the raw ring insert: it adds v if space is available and
// reports whether it did, with no instrumentation side effects. Enqueue's
// spin loop uses it so a single blocking episode is not counted as a stall
// once per iteration.
func (q *Queue[T]) tryEnqueue(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() == uint64(len(q.buf)) {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	q.ins.Enqueued.Inc()
	q.ins.Depth.Set(int64(t + 1 - q.head.Load()))
	return true
}

// TryEnqueue adds v if space is available, reporting whether it did, and
// counts a Stalls observation when the ring is full. It never blocks, so a
// producer that must not wait (an ingest worker shedding load back to the
// network instead of blocking its accept path) can use the false return to
// throttle the source while the full ring stays visible on the same
// instrument a blocking producer would have bumped.
// It must only be called by the single producer.
func (q *Queue[T]) TryEnqueue(v T) bool {
	if q.tryEnqueue(v) {
		return true
	}
	q.ins.Stalls.Inc()
	return false
}

// Enqueue adds v, blocking while the queue is full, and reports whether the
// item was accepted. It must only be called by the single producer. A false
// result means the queue was closed — either before the call or while the
// producer was blocked on a full ring with the consumer gone (a crashed or
// abandoned drain thread); the item is dropped rather than deadlocking the
// producer. A blocking episode counts as one stall however long it spins.
func (q *Queue[T]) Enqueue(v T) bool {
	spins := 0
	for {
		if q.closed.Load() {
			return false
		}
		if q.tryEnqueue(v) {
			return true
		}
		if spins == 0 {
			q.ins.Stalls.Inc()
		}
		q.backoff(spins)
		spins++
	}
}

// TryDequeue removes the next item if one is buffered. It must only be
// called by the single consumer.
func (q *Queue[T]) TryDequeue() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.tail.Load() {
		return zero, false
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // release references for GC
	q.head.Store(h + 1)
	return v, true
}

// Dequeue removes the next item, blocking until one is available or the
// queue is closed and drained. The second result is false only when the
// queue is closed and empty.
func (q *Queue[T]) Dequeue() (T, bool) {
	spins := 0
	for {
		if v, ok := q.TryDequeue(); ok {
			return v, true
		}
		if q.closed.Load() {
			// Re-check after observing closed: the producer may have
			// enqueued between our TryDequeue and its Close.
			if v, ok := q.TryDequeue(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		q.backoff(spins)
		spins++
	}
}

// DequeueTimeout is Dequeue with a deadline. ok reports whether an item
// was returned; done reports that the queue is closed and fully drained.
// ok=false with done=false means the deadline passed — the consumer can do
// periodic housekeeping (e.g. the recorder's timed chunk flush) and try
// again.
func (q *Queue[T]) DequeueTimeout(d time.Duration) (v T, ok bool, done bool) {
	deadline := time.Now().Add(d)
	spins := 0
	for {
		if v, ok := q.TryDequeue(); ok {
			return v, true, false
		}
		if q.closed.Load() {
			if v, ok := q.TryDequeue(); ok {
				return v, true, false
			}
			var zero T
			return zero, false, true
		}
		q.backoff(spins)
		spins++
		if (spins < yieldBeforeNap && spins%64 == 0 || spins >= yieldBeforeNap) &&
			time.Now().After(deadline) {
			var zero T
			return zero, false, false
		}
	}
}

// Close marks the queue as finished. The producer calls it after its final
// Enqueue; a supervisor may also call it to abandon the queue (e.g. when
// simulating a crash), in which case a producer blocked in Enqueue unblocks
// and drops its item. The consumer drains remaining items and then receives
// ok=false from Dequeue.
func (q *Queue[T]) Close() { q.closed.Store(true) }

// IdleLoops reports how many unproductive wait iterations blocked endpoints
// have performed, for tests asserting the idle backoff is bounded.
func (q *Queue[T]) IdleLoops() uint64 { return q.idleLoops.Load() }
