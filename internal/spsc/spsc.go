// Package spsc provides the bounded single-producer single-consumer queue
// that connects an application's main thread to the CDC thread (paper §4.2).
//
// Because exactly one goroutine enqueues (the MPI/main thread) and exactly
// one dequeues (the CDC encoder thread), the queue needs no mutual
// exclusion: the producer owns the tail index, the consumer owns the head
// index, and each observes the other's index with an atomic load. This
// mirrors the paper's observe-queue and replay-queue design.
//
// The slots live in linked fixed-size segments allocated only as the
// backlog needs them, so a queue's memory follows its backlog rather than
// its capacity: §6.2's CDC thread drains far faster than the application
// produces, and a 65,536-slot observe queue rarely holds more than a few
// thousand rows. The consumer hands each drained segment back as a spare,
// so a backlog that stays within two segments allocates nothing in steady
// state. A queue of at most one segment is a single ring.
//
// The queue is bounded: Enqueue blocks (spinning, then yielding) when the
// queue is full, which is the backpressure behaviour §6.2 describes — in
// practice the CDC thread drains far faster than the application produces,
// so the block is never expected to occur.
package spsc

import (
	"runtime"
	"sync/atomic"
	"time"

	"cdcreplay/internal/obs"
)

// maxSegmentLen caps the slots in one segment: a segment holds
// min(capacity, maxSegmentLen) items.
const maxSegmentLen = 1024

// segment is one fixed-size run of slots. Slot i of the queue lives at
// index i&segMask of the segment chained in for it.
type segment[T any] struct {
	buf []T
	// next is the segment after this one. The producer publishes it before
	// the tail that makes its first slot visible; the consumer reads it only
	// after it has seen that tail. A single-segment queue links its one
	// segment to itself.
	next atomic.Pointer[segment[T]]
}

// Queue is a bounded SPSC queue over linked segments. The zero value is not
// usable; call New.
type Queue[T any] struct {
	capacity uint64
	segMask  uint64 // segment length − 1 (a power of two)

	// The consumer's and the producer's fields are kept on separate cache
	// lines to avoid false sharing between their cores.
	head    atomic.Uint64 // next slot the consumer will read
	headSeg *segment[T]   // consumer-owned: holds slot head−1 (slot 0 at start)
	_       [6]uint64
	tail    atomic.Uint64 // next slot the producer will write
	tailSeg *segment[T]   // producer-owned: holds slot tail−1 (slot 0 at start)
	_       [6]uint64
	// spare is a drained segment the consumer handed back for the
	// producer's next segment boundary.
	spare atomic.Pointer[segment[T]]
	// stalls counts the times the producer found the queue full: each
	// blocking Enqueue episode once, and each failed TryEnqueue.
	stalls atomic.Uint64
	closed atomic.Bool
	// idleLoops counts empty-queue wait iterations across both endpoints,
	// for tests asserting the idle spin is bounded.
	idleLoops atomic.Uint64

	ins Instruments

	// first is the segment New starts with, held inline so a queue of one
	// segment costs the same single slot allocation a flat ring would.
	first segment[T]
}

// Instruments are the queue's optional obs hooks. Nil instruments (the
// default, and everything a nil obs.Registry hands out) cost one pointer
// check per operation on the hot path.
type Instruments struct {
	// Enqueued counts accepted items.
	Enqueued *obs.Counter
	// Stalls counts blocking Enqueue episodes and failed TryEnqueue calls
	// that found the queue full (the count Queue.Stalls reports).
	Stalls *obs.Counter
	// Depth samples the buffered item count at each enqueue and dequeue,
	// so its value is the current backlog; its high-water mark is the
	// peak backlog the consumer let build up.
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
// (minimum 2). Only the first segment is allocated up front.
func New[T any](capacity int) *Queue[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	segLen := min(n, maxSegmentLen)
	q := &Queue[T]{capacity: uint64(n), segMask: uint64(segLen - 1)}
	q.first.buf = make([]T, segLen)
	if segLen == n {
		q.first.next.Store(&q.first)
	}
	q.headSeg, q.tailSeg = &q.first, &q.first
	return q
}

// Cap reports the queue capacity.
func (q *Queue[T]) Cap() int { return int(q.capacity) }

// Stalls reports how many times the producer found the queue full: each
// blocking Enqueue episode counts once, however long it waits, and each
// failed TryEnqueue counts once. It is the same count the Stalls
// instrument receives.
func (q *Queue[T]) Stalls() uint64 { return q.stalls.Load() }

// Len reports the number of buffered items. It is approximate when both
// ends are active concurrently but exact for either endpoint's own view.
func (q *Queue[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// tryEnqueue is the raw insert: it adds v if space is available and
// reports whether it did, with no instrumentation side effects. Enqueue's
// spin loop uses it so a single blocking episode is not counted as a stall
// once per iteration.
func (q *Queue[T]) tryEnqueue(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() == q.capacity {
		return false
	}
	seg, off := q.tailSeg, t&q.segMask
	if off == 0 && t != 0 {
		seg = q.nextTailSegment(seg)
	}
	seg.buf[off] = v
	q.tail.Store(t + 1)
	q.ins.Enqueued.Inc()
	if q.ins.Depth != nil {
		q.ins.Depth.Set(int64(t + 1 - q.head.Load()))
	}
	return true
}

// nextTailSegment moves the producer from the full segment seg to the one
// after it: the segment already linked there (a single-segment queue's
// own), else the consumer's spare, else a fresh one. The link is published
// before the caller's tail store makes the new segment's first slot
// visible.
func (q *Queue[T]) nextTailSegment(seg *segment[T]) *segment[T] {
	next := seg.next.Load()
	if next == nil {
		if next = q.spare.Swap(nil); next == nil {
			next = &segment[T]{buf: make([]T, q.segMask+1)}
		}
		seg.next.Store(next)
	}
	q.tailSeg = next
	return next
}

// TryEnqueue adds v if space is available, reporting whether it did, and
// counts a Stalls observation when the queue is full. It never blocks, so a
// producer that must not wait (an ingest worker shedding load back to the
// network instead of blocking its accept path) can use the false return to
// throttle the source while the full queue stays visible on the same
// instrument a blocking producer would have bumped.
// It must only be called by the single producer.
func (q *Queue[T]) TryEnqueue(v T) bool {
	if q.tryEnqueue(v) {
		return true
	}
	q.stall()
	return false
}

// stall counts one full-queue observation by the producer.
func (q *Queue[T]) stall() {
	q.stalls.Add(1)
	q.ins.Stalls.Inc()
}

// Enqueue adds v, blocking while the queue is full, and reports whether the
// item was accepted. It must only be called by the single producer. A false
// result means the queue was closed — either before the call or while the
// producer was blocked on a full queue with the consumer gone (a crashed or
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
			q.stall()
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
	seg, off := q.headSeg, h&q.segMask
	if off == 0 && h != 0 {
		// Slot h was published after the link to its segment, so next is
		// set. The drained segment becomes the producer's spare, unless it
		// is the single-segment queue's own ring.
		next := seg.next.Load()
		if next != seg {
			seg.next.Store(nil)
			q.spare.Store(seg)
		}
		q.headSeg, seg = next, next
	}
	v := seg.buf[off]
	seg.buf[off] = zero // release references for GC
	q.head.Store(h + 1)
	if q.ins.Depth != nil {
		q.ins.Depth.Set(int64(q.tail.Load() - h - 1))
	}
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
