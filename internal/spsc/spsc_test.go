package spsc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cdcreplay/internal/obs"
)

// TestFIFOOrder fills queues to capacity, including requested capacities
// that are not a multiple of the segment length, and checks TryEnqueue
// fails exactly at Cap() and the items come back in order.
func TestFIFOOrder(t *testing.T) {
	for _, req := range []int{8, 100, 1500, 3000, 5000} {
		q := New[int](req)
		n := q.Cap()
		for i := 0; i < n; i++ {
			if !q.TryEnqueue(i) {
				t.Fatalf("New(%d): TryEnqueue(%d) failed below Cap() = %d", req, i, n)
			}
		}
		if q.TryEnqueue(99) {
			t.Fatalf("New(%d): TryEnqueue succeeded at Cap() = %d", req, n)
		}
		for i := 0; i < n; i++ {
			v, ok := q.TryDequeue()
			if !ok || v != i {
				t.Fatalf("New(%d): TryDequeue = %d,%v want %d,true", req, v, ok, i)
			}
		}
		if _, ok := q.TryDequeue(); ok {
			t.Fatalf("New(%d): TryDequeue succeeded on empty queue", req)
		}
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
// blocked on a full queue, a supervisor closes it, and the producer must
// unblock with Enqueue reporting the item was dropped. The larger queue's
// backlog spans several segments.
func TestCloseUnblocksFullEnqueue(t *testing.T) {
	for _, capacity := range []int{2, 4 * maxSegmentLen} {
		q := New[int](capacity)
		for i := 0; i < capacity; i++ {
			q.Enqueue(i)
		}
		done := make(chan bool, 1)
		go func() {
			done <- q.Enqueue(-1) // blocks: the queue is full, nobody is draining
		}()
		select {
		case <-done:
			t.Fatalf("cap %d: Enqueue on full queue returned before Close", capacity)
		case <-time.After(20 * time.Millisecond):
		}
		q.Close()
		select {
		case accepted := <-done:
			if accepted {
				t.Fatalf("cap %d: Enqueue after Close-while-blocked reported accepted", capacity)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cap %d: blocked Enqueue did not unblock after Close", capacity)
		}
		for i := 0; i < capacity; i++ {
			if v, ok := q.Dequeue(); !ok || v != i {
				t.Fatalf("cap %d: drain got %d,%v want %d,true", capacity, v, ok, i)
			}
		}
		if _, ok := q.Dequeue(); ok {
			t.Fatalf("cap %d: Dequeue on closed drained queue returned ok", capacity)
		}
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
	if q.first.buf[0] != nil {
		t.Fatal("dequeued slot still references the value")
	}
}

// segments counts the segments chained from the consumer's to the
// producer's. Call it only while neither endpoint is running.
func segments[T any](q *Queue[T]) int {
	n := 1
	for s := q.headSeg; s != q.tailSeg; s = s.next.Load() {
		n++
	}
	return n
}

// TestNewAllocatesOneSegment: a 65,536-slot observe queue of 56-byte rows
// allocates its first segment only, not the whole capacity.
func TestNewAllocatesOneSegment(t *testing.T) {
	const queues = 8
	segBytes := uint64(maxSegmentLen * 56)
	var q *Queue[[56]byte]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queues; i++ {
		q = New[[56]byte](65536)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / queues; per >= 2*segBytes {
		t.Fatalf("New[[56]byte](65536) allocated %d bytes, want less than two %d-byte segments", per, segBytes)
	}
	if q.Cap() != 65536 || segments(q) != 1 {
		t.Fatalf("Cap() = %d with %d segments, want 65536 with 1", q.Cap(), segments(q))
	}
}

// TestBacklogHoldsCeilSegments: a backlog of d items enqueued from the
// start holds ceil(d/segment) segments, and draining it leaves one.
func TestBacklogHoldsCeilSegments(t *testing.T) {
	for _, d := range []int{1, maxSegmentLen - 1, maxSegmentLen, maxSegmentLen + 1, 3000, 4 * maxSegmentLen} {
		q := New[int](4 * maxSegmentLen)
		for i := 0; i < d; i++ {
			if !q.TryEnqueue(i) {
				t.Fatalf("backlog %d: TryEnqueue(%d) failed", d, i)
			}
		}
		if got, want := segments(q), (d+maxSegmentLen-1)/maxSegmentLen; got != want {
			t.Errorf("backlog %d: %d segments, want %d", d, got, want)
		}
		for i := 0; i < d; i++ {
			if v, ok := q.TryDequeue(); !ok || v != i {
				t.Fatalf("backlog %d: TryDequeue = %d,%v want %d,true", d, v, ok, i)
			}
		}
		if got := segments(q); got != 1 {
			t.Errorf("backlog %d drained: %d segments, want 1", d, got)
		}
	}
}

// TestSteadyStateAllocatesNothing: traffic whose backlog stays within two
// segments runs on the consumer's spare and allocates nothing. Allocations
// are counted over a fixed number of segment-boundary crossings, not per
// burst: a burst shorter than a segment crosses a boundary only now and
// then, so one allocation per crossing must show as one per crossing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const crossings = 64
	for _, burst := range []int{1, 700, maxSegmentLen} {
		q := New[[56]byte](65536)
		var item [56]byte
		run := func(items int) {
			for done := 0; done < items; done += burst {
				for i := 0; i < burst; i++ {
					q.TryEnqueue(item)
				}
				for i := 0; i < burst; i++ {
					q.TryDequeue()
				}
			}
		}
		run(2 * maxSegmentLen) // the first crossing allocates the second segment
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(crossings * maxSegmentLen)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n >= crossings/2 {
			t.Errorf("burst %d: %d allocations over %d segment crossings, want none", burst, n, crossings)
		}
	}
}

// TestSegmentedFIFOStress streams items through a multi-segment queue in
// random bursts while the consumer pauses now and then, so the backlog
// grows and shrinks across segment boundaries; run it under -race.
func TestSegmentedFIFOStress(t *testing.T) {
	const n = 300_000
	q := New[int](4 * maxSegmentLen)
	depth := obs.NewRegistry().Gauge("depth")
	q.Instrument(Instruments{Depth: depth})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; {
			burst := 1 + rng.Intn(3*maxSegmentLen)
			for j := 0; j < burst && i < n; j++ {
				q.Enqueue(i)
				i++
			}
			runtime.Gosched()
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
		if want%20_000 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if want != n {
		t.Fatalf("consumed %d items, want %d", want, n)
	}
	wg.Wait()
	if m := depth.Max(); m <= maxSegmentLen {
		t.Fatalf("peak backlog %d never crossed a segment boundary", m)
	}
}

// TestDepthGaugeFollowsBacklog checks the Depth gauge reports the current
// backlog, falling as the consumer drains, while its high-water mark keeps
// the peak.
func TestDepthGaugeFollowsBacklog(t *testing.T) {
	depth := obs.NewRegistry().Gauge("depth")
	q := New[int](8)
	q.Instrument(Instruments{Depth: depth})
	for i := 0; i < 3; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.TryDequeue(); !ok {
			t.Fatalf("dequeue %d found the queue empty", i)
		}
	}
	if v, m := depth.Value(), depth.Max(); v != 0 || m != 3 {
		t.Fatalf("depth gauge = %d (max %d), want 0 (max 3)", v, m)
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
