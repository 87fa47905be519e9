package feed

import (
	"runtime"
	"testing"
	"time"

	"cdcreplay/internal/obs"
)

func ev(seq uint64) Event { return Event{Seq: seq, Kind: KindFrame} }

// TestHubDropPolicyGapMarkers walks the drop policy's exact state machine:
// a full queue accumulates a dropped run, the gap marker is delivered
// immediately before the first event accepted after the run, and a single
// free slot is not enough to surface a gap (marker + event go together).
func TestHubDropPolicyGapMarkers(t *testing.T) {
	h := newHub(4, Drop, obs.NewRegistry())
	s, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ { // fill
		h.publish(ev(i))
	}
	h.publish(ev(5)) // full: dropped run begins
	h.publish(ev(6))
	if got := s.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if got, _ := s.TryRecv(); got.Seq != 1 {
		t.Fatalf("recv seq %d, want 1", got.Seq)
	}
	h.publish(ev(7)) // one free slot: gap pending, event joins the run
	if got := s.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d after one-slot publish, want 3", got)
	}
	if got, _ := s.TryRecv(); got.Seq != 2 {
		t.Fatalf("recv seq %d, want 2", got.Seq)
	}
	h.publish(ev(8)) // two free slots: gap marker + event 8 both land
	wantSeq := []uint64{3, 4}
	for _, want := range wantSeq {
		if got, ok := s.TryRecv(); !ok || got.Seq != want {
			t.Fatalf("recv = %+v, want seq %d", got, want)
		}
	}
	gap, ok := s.TryRecv()
	if !ok || gap.Kind != KindGap || gap.Dropped != 3 {
		t.Fatalf("gap = %+v, want KindGap with Dropped=3", gap)
	}
	if got, ok := s.TryRecv(); !ok || got.Seq != 8 {
		t.Fatalf("post-gap recv = %+v, want seq 8", got)
	}
	if got := s.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d after gap surfaced, want 0", got)
	}
	if h.mDrops.Value() != 3 {
		t.Fatalf("feed.drops = %d, want 3", h.mDrops.Value())
	}
}

// TestHubBlockPolicyWaitsForSpace pins that a blocked publish completes as
// soon as the full subscriber drains one slot, and that the backpressure
// counter records the stall.
func TestHubBlockPolicyWaitsForSpace(t *testing.T) {
	h := newHub(2, Block, obs.NewRegistry())
	s, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	h.publish(ev(1))
	h.publish(ev(2))

	released := make(chan struct{})
	go func() { h.publish(ev(3)); close(released) }()
	// Wait for the publisher to actually stall before draining: mBlocked
	// is bumped under the hub mutex right before cond.Wait, so once it
	// reads 1 the publisher cannot complete until a slot frees. No sleeps
	// needed — an early non-blocking return is caught in the same loop.
	for h.mBlocked.Value() == 0 {
		select {
		case <-released:
			t.Fatal("publish into a full queue returned without waiting")
		default:
			runtime.Gosched()
		}
	}
	if got, ok := s.Recv(); !ok || got.Seq != 1 {
		t.Fatalf("recv = %+v, want seq 1", got)
	}
	<-released
	if h.mBlocked.Value() != 1 {
		t.Fatalf("feed.backpressure = %d, want 1", h.mBlocked.Value())
	}
	if _, _, blocked := h.stats(); blocked != 1 {
		t.Fatalf("hub backpressure count = %d, want 1", blocked)
	}
	if got := s.Dropped(); got != 0 {
		t.Fatalf("block policy dropped %d events", got)
	}
}

// TestHubCloseUnblocksAndDrains pins teardown ordering: close releases a
// blocked publisher, buffered events stay drainable, then Recv ends.
func TestHubCloseUnblocksAndDrains(t *testing.T) {
	h := newHub(2, Block, obs.NewRegistry())
	s, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	h.publish(ev(1))
	h.publish(ev(2))
	released := make(chan struct{})
	go func() { h.publish(ev(3)); close(released) }()
	h.close()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("close did not release the blocked publisher")
	}
	for _, want := range []uint64{1, 2} {
		if got, ok := s.Recv(); !ok || got.Seq != want {
			t.Fatalf("post-close recv = %+v, want seq %d", got, want)
		}
	}
	if _, ok := s.Recv(); ok {
		t.Fatal("Recv succeeded past the drained close")
	}
	if _, err := h.subscribe(); err != ErrFeedClosed {
		t.Fatalf("subscribe after close = %v, want ErrFeedClosed", err)
	}
}

// TestHubSubscriberCloseDetaches pins that closing one subscription frees
// a blocked publisher and stops counting that consumer.
func TestHubSubscriberCloseDetaches(t *testing.T) {
	h := newHub(2, Block, obs.NewRegistry())
	slow, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if h.mSubs.Value() != 2 {
		t.Fatalf("feed.subscribers = %d, want 2", h.mSubs.Value())
	}
	h.publish(ev(1))
	h.publish(ev(2))
	fast.Recv()
	fast.Recv()
	released := make(chan struct{})
	go func() { h.publish(ev(3)); close(released) }()
	slow.Close() // the only full consumer detaches
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("closing the full subscriber did not release the publisher")
	}
	if got, ok := fast.Recv(); !ok || got.Seq != 3 {
		t.Fatalf("fast recv = %+v, want seq 3", got)
	}
	if h.mSubs.Value() != 1 {
		t.Fatalf("feed.subscribers = %d after detach, want 1", h.mSubs.Value())
	}
	if _, ok := slow.Recv(); ok {
		t.Fatal("Recv succeeded on a closed subscription")
	}
}
