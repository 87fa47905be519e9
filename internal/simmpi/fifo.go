package simmpi

// fifo is an order-preserving queue with an O(1) head pop, used for the
// posted-receive and unexpected-message queues. MPI matching almost always
// takes the head of either queue, so a head pop must not shift the rest.
// The live items are buf[head:]. A popped slot is zeroed, so the dead
// prefix pins no garbage, and the live items move to the front once the
// dead prefix reaches half of buf (amortized O(1) per pop). Removing an
// item behind the head (a receive that skipped non-matching entries) shifts
// the items after it down one slot.
type fifo[T any] struct {
	buf  []T
	head int
}

// len returns the number of live items.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// live returns the live items in queue order. The slice aliases the queue
// and is valid only until the next push or remove.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

// push appends v at the tail.
func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

// remove deletes the i-th live item, keeping the order of the others.
func (q *fifo[T]) remove(i int) {
	var zero T
	if i == 0 {
		q.buf[q.head] = zero
		q.head++
		if 2*q.head >= len(q.buf) {
			q.compact()
		}
		return
	}
	at := q.head + i
	copy(q.buf[at:], q.buf[at+1:])
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
}

// compact moves the live items to the front of buf. Every slot past the
// live range is already zero: popped slots were cleared by remove, and the
// old positions of the moved items are cleared here.
func (q *fifo[T]) compact() {
	n := copy(q.buf, q.buf[q.head:])
	clear(q.buf[n:])
	q.buf = q.buf[:n]
	q.head = 0
}
