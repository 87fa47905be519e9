package simmpi

import (
	"math/rand"
	"slices"
	"testing"
)

// checkFifo compares q's live items with want and requires every slot
// outside the live range to be nil.
func checkFifo(t *testing.T, step int, q *fifo[int], want []*int) {
	t.Helper()
	if !slices.Equal(q.live(), want) || q.len() != len(want) {
		t.Fatalf("step %d: live = %v, want %v", step, q.live(), want)
	}
	for i, p := range q.buf[:q.head] {
		if p != nil {
			t.Fatalf("step %d: dead slot %d (head %d) still holds %d", step, i, q.head, *p)
		}
	}
	for i, p := range q.buf[len(q.buf):cap(q.buf)] {
		if p != nil {
			t.Fatalf("step %d: spare slot %d past the tail still holds %d", step, len(q.buf)+i, *p)
		}
	}
}

func TestFifoKeepsOrderAndDropsPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q fifo[int]
	var model []*int
	next := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(model) == 0: // push
			v := next
			next++
			q.push(&v)
			model = append(model, &v)
		case op < 8: // head pop, the common MPI match
			q.remove(0)
			model = model[1:]
		default: // filtered match behind the head
			i := rng.Intn(len(model))
			q.remove(i)
			model = slices.Delete(model, i, i+1)
		}
		checkFifo(t, step, &q, model)
	}
}

func TestFifoCompactsHalfDeadPrefix(t *testing.T) {
	var q fifo[int]
	vals := make([]int, 8)
	for i := range vals {
		q.push(&vals[i])
	}
	for i := 0; i < 3; i++ {
		q.remove(0)
	}
	if q.head != 3 {
		t.Fatalf("head = %d after 3 pops of 8, want 3 (no compaction yet)", q.head)
	}
	q.remove(0) // dead prefix reaches half of buf
	if q.head != 0 || len(q.buf) != 4 {
		t.Fatalf("after compaction head = %d, len(buf) = %d; want 0, 4", q.head, len(q.buf))
	}
	want := []*int{&vals[4], &vals[5], &vals[6], &vals[7]}
	checkFifo(t, 0, &q, want)
	for q.len() > 0 {
		q.remove(0)
	}
	checkFifo(t, 1, &q, nil)
}
