package spsc

import (
	"cdcreplay/internal/obs"

	"sync"
	"testing"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ {
		if !q.TryEnqueue(i) {
			t.Fatalf("TryEnqueue(%d) failed on non-full queue", i)
		}
	}
	if q.TryEnqueue(99) {
		t.Fatal("TryEnqueue succeeded on full queue")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryDequeue()
		if !ok || v != i {
			t.Fatalf("TryDequeue = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue succeeded on empty queue")
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, c := range []struct{ req, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {8, 8}, {9, 16}} {
		if got := New[int](c.req).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.req, got, c.want)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.Enqueue(round*10 + i)
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: got %d,%v", round, v, ok)
			}
		}
	}
}

func TestCloseDrains(t *testing.T) {
	q := New[string](4)
	q.Enqueue("a")
	q.Enqueue("b")
	q.Close()
	if v, ok := q.Dequeue(); !ok || v != "a" {
		t.Fatalf("got %q,%v", v, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != "b" {
		t.Fatalf("got %q,%v", v, ok)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue on closed empty queue returned ok")
	}
}

func TestEnqueueAfterCloseDrops(t *testing.T) {
	q := New[int](2)
	q.Close()
	if q.Enqueue(1) {
		t.Fatal("Enqueue on closed queue reported accepted")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dropped item was buffered anyway")
	}
}

// TestCloseUnblocksFullEnqueue simulates a crashed consumer: the producer is
// blocked on a full ring, a supervisor closes the queue, and the producer
// must unblock with Enqueue reporting the item was dropped.
func TestCloseUnblocksFullEnqueue(t *testing.T) {
	q := New[int](2)
	q.Enqueue(1)
	q.Enqueue(2)
	done := make(chan bool, 1)
	go func() {
		done <- q.Enqueue(3) // blocks: ring is full, nobody is draining
	}()
	select {
	case <-done:
		t.Fatal("Enqueue on full queue returned before Close")
	case <-time.After(20 * time.Millisecond):
	}
	q.Close()
	select {
	case accepted := <-done:
		if accepted {
			t.Fatal("Enqueue after Close-while-blocked reported accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Enqueue did not unblock after Close")
	}
}

// TestIdleSpinBounded asserts an idle consumer backs off to sleeping instead
// of burning scheduler slots forever: waiting ~50ms must cost far fewer
// iterations than a Gosched-granularity busy loop would (tens of millions).
func TestIdleSpinBounded(t *testing.T) {
	q := New[int](8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.DequeueTimeout(50 * time.Millisecond)
	}()
	<-done
	// 50ms of waiting: ~1k spin/yield iterations then ≤200µs naps, so the
	// loop count stays in the low thousands. Allow generous headroom.
	if n := q.IdleLoops(); n > 100_000 {
		t.Fatalf("idle wait performed %d loop iterations; backoff is not bounding the spin", n)
	}
}

// TestConcurrentProducerConsumer exercises the lock-free paths under the
// race detector: one producer streams a million items through a tiny ring
// while one consumer verifies sequence integrity.
func TestConcurrentProducerConsumer(t *testing.T) {
	const n = 1_000_000
	q := New[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Enqueue(i)
		}
		q.Close()
	}()
	want := 0
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("out of order: got %d want %d", v, want)
		}
		want++
	}
	if want != n {
		t.Fatalf("consumed %d items, want %d", want, n)
	}
	wg.Wait()
}

func TestLen(t *testing.T) {
	q := New[int](8)
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	q.Enqueue(1)
	q.Enqueue(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.Dequeue()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestPointerValuesReleased(t *testing.T) {
	q := New[*int](2)
	v := new(int)
	q.Enqueue(v)
	q.Dequeue()
	// The slot must have been zeroed so the queue doesn't pin the object.
	if q.buf[0] != nil {
		t.Fatal("dequeued slot still references the value")
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New[int](1024)
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(1)
		q.TryDequeue()
	}
}

func BenchmarkThroughput(b *testing.B) {
	q := New[int](4096)
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := q.Dequeue(); !ok {
				close(done)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(i)
	}
	q.Close()
	<-done
}

// TestTryEnqueueCountsStalls pins the shed-load contract: a failed
// TryEnqueue on a full ring registers on the Stalls instrument (so
// non-blocking producers are as observable as blocking ones), a successful
// one does not, and a blocking Enqueue episode still counts exactly once
// however long it spins.
func TestTryEnqueueCountsStalls(t *testing.T) {
	reg := obs.NewRegistry()
	q := New[int](4)
	stalls := reg.Counter("q.stalls")
	q.Instrument(Instruments{
		Enqueued: reg.Counter("q.enqueued"),
		Stalls:   stalls,
		Depth:    reg.Gauge("q.depth"),
	})
	for i := 0; i < 4; i++ {
		if !q.TryEnqueue(i) {
			t.Fatalf("TryEnqueue(%d) failed on non-full queue", i)
		}
	}
	if got := stalls.Value(); got != 0 {
		t.Fatalf("stalls after successful enqueues = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if q.TryEnqueue(99) {
			t.Fatal("TryEnqueue succeeded on full queue")
		}
	}
	if got := stalls.Value(); got != 3 {
		t.Fatalf("stalls after 3 failed TryEnqueues = %d, want 3", got)
	}

	// A blocking Enqueue that spins across many unproductive iterations is
	// still one stall: unblock it after a delay and check the count moved
	// by exactly one.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !q.Enqueue(100) {
			t.Error("Enqueue returned false on open queue")
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if _, ok := q.TryDequeue(); !ok {
		t.Fatal("TryDequeue failed on full queue")
	}
	<-done
	if got := stalls.Value(); got != 4 {
		t.Fatalf("stalls after blocking Enqueue episode = %d, want 4", got)
	}
	if got := q.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
}
