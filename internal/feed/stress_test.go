package feed_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cdcreplay/internal/feed"
)

// The fan-out stress tests run an unpaced feed into several fast consumers
// plus one deliberately stalled one, under both slow-consumer policies.
// They are written for -race: every consumer runs on its own goroutine and
// all assertions happen after a full join.

// recvAll drains a subscription to stream end, returning everything seen.
func recvAll(sub *feed.Subscription) []feed.Event {
	var out []feed.Event
	for {
		ev, ok := sub.Recv()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestFanOutBlockPolicyStress checks that one stalled subscriber throttles
// the whole feed (backpressure recorded) and that once it drains, every
// subscriber has seen the identical release sequence.
func TestFanOutBlockPolicyStress(t *testing.T) {
	st := buildFeedStore(t)
	f, helperSub, _ := openPaused(t, st, feed.Options{
		Rate:             feed.RateMax,
		SubscriberBuffer: 4,
		Policy:           feed.Block,
	})
	helperSub.Close() // undrained, would wedge the pump under Block
	const fast = 3
	subs := make([]*feed.Subscription, fast)
	for i := range subs {
		s, err := f.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	stalled, err := f.Subscribe()
	if err != nil {
		t.Fatal(err)
	}

	got := make([][]feed.Event, fast+1)
	var wg sync.WaitGroup
	for i, s := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = recvAll(s)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Stall until the pump has visibly blocked on our full queue, then
		// drain everything.
		for i := 0; f.Stats().Backpressure == 0; i++ {
			runtime.Gosched()
			if i > 50_000_000 {
				panic("pump never blocked on the stalled subscriber")
			}
		}
		got[fast] = recvAll(stalled)
	}()
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	s := f.Stats()
	if s.Backpressure == 0 {
		t.Fatal("block policy recorded no backpressure")
	}
	if s.Drops != 0 {
		t.Fatalf("block policy dropped %d releases", s.Drops)
	}
	for i := 1; i < len(got); i++ {
		if len(got[i]) != len(got[0]) {
			t.Fatalf("subscriber %d saw %d events, subscriber 0 saw %d", i, len(got[i]), len(got[0]))
		}
		for j := range got[i] {
			if got[i][j].Seq != got[0][j].Seq || got[i][j].Kind != got[0][j].Kind {
				t.Fatalf("subscriber %d event %d = seq %d %v, subscriber 0 = seq %d %v",
					i, j, got[i][j].Seq, got[i][j].Kind, got[0][j].Seq, got[0][j].Kind)
			}
		}
	}
	if last := got[0][len(got[0])-1]; last.Kind != feed.KindEnd {
		t.Fatalf("stream ended with %v, want KindEnd", last.Kind)
	}
}

// TestFanOutDropPolicyStress checks that a never-draining subscriber loses
// releases but never stalls the feed, and that its loss is fully accounted
// for: buffered events + gap markers + residual Dropped() add up to the
// exact release count the fast subscribers saw.
func TestFanOutDropPolicyStress(t *testing.T) {
	st := buildFeedStore(t)
	f, helperSub, _ := openPaused(t, st, feed.Options{
		Rate:             feed.RateMax,
		SubscriberBuffer: 8,
		Policy:           feed.Drop,
	})
	helperSub.Close() // keep the accounting to the subscribers below
	const fast = 3
	subs := make([]*feed.Subscription, fast)
	for i := range subs {
		s, err := f.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	laggard, err := f.Subscribe()
	if err != nil {
		t.Fatal(err)
	}

	got := make([][]feed.Event, fast)
	var wg sync.WaitGroup
	for i, s := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = recvAll(s)
		}()
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // consumers reached stream end: the laggard never blocked them
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Every subscriber — fast or stalled — must account for every release:
	// accepted events, gap-marker counts, and the residual dropped run add
	// up exactly, and accepted sequence numbers never regress or repeat
	// (the no-lost-update contract under concurrent drops).
	total := f.Stats().Released
	check := func(name string, evs []feed.Event, residual uint64) (gapped uint64) {
		t.Helper()
		var accepted uint64
		last := -1
		for _, ev := range evs {
			if ev.Kind == feed.KindGap {
				gapped += ev.Dropped
				continue
			}
			if int(ev.Seq) <= last {
				t.Fatalf("%s: seq %d after %d — duplicate or reordered delivery", name, ev.Seq, last)
			}
			last = int(ev.Seq)
			accepted++
		}
		if accounted := accepted + gapped + residual; accounted != total {
			t.Fatalf("%s accounts for %d releases (%d accepted, %d in gaps, %d residual), want %d",
				name, accounted, accepted, gapped, residual, total)
		}
		return gapped
	}
	for i := range got {
		check(fmt.Sprintf("fast %d", i), got[i], subs[i].Dropped())
	}
	lagGapped := check("laggard", recvAll(laggard), laggard.Dropped())
	if lagGapped+laggard.Dropped() == 0 {
		t.Fatal("laggard dropped nothing: stress fixture too small to exercise Drop")
	}
	if f.Stats().Backpressure != 0 {
		t.Fatal("drop policy blocked the pump")
	}
}
