package feed_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/feed"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/workload"
)

// Every test in this file runs entirely on the virtual clock: release
// schedules are asserted as exact timestamps, and nothing sleeps on wall
// time, so the suite is identical in -short and full mode and cannot flake
// on machine load.

// fixtureClocks are the explicit flush clocks the fixture record commits;
// Close appends one final mark that repeats the last clock.
var fixtureClocks = []uint64{1000, 2000, 3000, 4000}

// buildFeedStore records one rank into a fresh sharded store with an epoch
// cut at each fixture clock (plus the encoder's final close mark).
func buildFeedStore(t testing.TB) store.Store {
	t.Helper()
	st := shardstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 1, App: "feed-test"}); err != nil {
		t.Fatal(err)
	}
	w, err := st.CreateRank(0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents:  32,
		SeekableCuts: true,
		OnFlushPoint: func(clock, events uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := workload.Stream(workload.StreamParams{Events: 160, Senders: 3, Disorder: 2, Seed: 11})
	per := len(evs) / len(fixtureClocks)
	for i, ev := range evs {
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		if (i+1)%per == 0 {
			if err := enc.FlushAll(fixtureClocks[(i+1)/per-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	return st
}

// drive drains sub and advances the virtual clock to the next pending
// deadline whenever the feed has nothing queued, until pred matches an
// event. Received events accumulate into got.
//
// The clock moves only while the pump is parked on it: a waiter seen
// pending BEFORE an empty read was registered after everything the pump
// published ahead of it, so all of that has already passed pred. Reading
// first and advancing on whatever waiter is pending afterwards would race
// the pump: it can publish pred's event and register the next mark's
// waiter in between, and the advance would then release that mark at the
// old rate before the caller's next control.
func drive(t *testing.T, vc *feed.VirtualClock, sub *feed.Subscription, got *[]feed.Event, pred func(feed.Event) bool) {
	t.Helper()
	for spins := 0; ; {
		parked := vc.Waiting() > 0
		if ev, ok := sub.TryRecv(); ok {
			*got = append(*got, ev)
			if pred(ev) {
				return
			}
			spins = 0
			continue
		}
		if parked {
			vc.AdvanceToNext()
			spins = 0
			continue
		}
		runtime.Gosched()
		if spins++; spins > 5_000_000 {
			t.Fatal("feed stalled: no events queued and no clock waiter pending")
		}
	}
}

// waitForWaiter spins until the pump is blocked on the virtual clock.
func waitForWaiter(t *testing.T, vc *feed.VirtualClock) {
	t.Helper()
	for i := 0; vc.Waiting() == 0; i++ {
		runtime.Gosched()
		if i > 5_000_000 {
			t.Fatal("pump never registered a clock waiter")
		}
	}
}

func isEnd(ev feed.Event) bool { return ev.Kind == feed.KindEnd }

func flushEvents(got []feed.Event) []feed.Event {
	var out []feed.Event
	for _, ev := range got {
		if ev.Kind == feed.KindFlush {
			out = append(out, ev)
		}
	}
	return out
}

// openPaused opens a feed frozen on a fresh virtual clock and attaches one
// subscriber, so no release can be missed.
func openPaused(t *testing.T, st store.Store, o feed.Options) (*feed.Feed, *feed.Subscription, *feed.VirtualClock) {
	t.Helper()
	vc := feed.NewVirtualClock(t0)
	o.Clock = vc
	o.Paused = true
	if o.Interval == 0 {
		o.Interval = time.Millisecond
	}
	f, err := feed.Open(st, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	sub, err := f.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	return f, sub, vc
}

// TestReleaseSchedule pins the exact release timestamps of every flush
// mark at several sim rates: mark k (clock C_k) must release at
// t0 + C_k·Interval/rate, the encoder's final close mark immediately after
// the last cut, and every between-marks frame bursts at the preceding
// release instant.
func TestReleaseSchedule(t *testing.T) {
	st := buildFeedStore(t)
	for _, rate := range []float64{0.5, 1, 2} {
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			f, sub, vc := openPaused(t, st, feed.Options{Rate: rate})
			if err := f.Resume(); err != nil {
				t.Fatal(err)
			}
			var got []feed.Event
			drive(t, vc, sub, &got, isEnd)

			var want []time.Time
			for _, c := range fixtureClocks {
				d := time.Duration(float64(time.Duration(c)*time.Millisecond) / rate)
				want = append(want, t0.Add(d))
			}
			want = append(want, want[len(want)-1]) // close mark repeats the last clock

			fl := flushEvents(got)
			if len(fl) != len(want) {
				t.Fatalf("got %d flush releases, want %d", len(fl), len(want))
			}
			for i, ev := range fl {
				if !ev.At.Equal(want[i]) || !ev.Due.Equal(want[i]) {
					t.Fatalf("flush %d released at %v (due %v), want exactly %v",
						i, ev.At, ev.Due, want[i])
				}
			}

			// Bursts: every non-flush frame releases at the previous mark's
			// instant (t0 before the first mark). The end event follows the
			// final mark with no further wait.
			prev := t0
			for _, ev := range got {
				switch ev.Kind {
				case feed.KindFrame:
					if !ev.At.Equal(prev) {
						t.Fatalf("frame seq %d released at %v, want burst at %v", ev.Seq, ev.At, prev)
					}
				case feed.KindFlush:
					prev = ev.At
				case feed.KindEnd:
					if ev.Err != "" {
						t.Fatalf("end event carries error %q", ev.Err)
					}
					if !ev.At.Equal(prev) {
						t.Fatalf("end released at %v, want %v", ev.At, prev)
					}
				}
			}
			if vc.Waits() == 0 {
				t.Fatal("paced feed never waited on the virtual clock")
			}
			if w := vc.Waiting(); w != 0 {
				t.Fatalf("%d clock waiters leaked", w)
			}
		})
	}
}

// TestRateMaxReleasesWithoutWaits pins the unpaced mode: every event
// releases at the anchor instant and the clock is never waited on.
func TestRateMaxReleasesWithoutWaits(t *testing.T) {
	st := buildFeedStore(t)
	f, sub, vc := openPaused(t, st, feed.Options{Rate: feed.RateMax})
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	var got []feed.Event
	drive(t, vc, sub, &got, isEnd)
	for _, ev := range got {
		if !ev.At.Equal(t0) {
			t.Fatalf("event seq %d (%v) released at %v, want %v", ev.Seq, ev.Kind, ev.At, t0)
		}
	}
	if n := vc.Waits(); n != 0 {
		t.Fatalf("max-rate feed performed %d clock waits, want 0", n)
	}
	if s := f.Stats(); !math.IsInf(s.Rate, 1) {
		t.Fatalf("Stats.Rate = %v, want +Inf", s.Rate)
	}
}

// TestStatsPerFeedUnderSharedRegistry opens two feeds over the same record
// on one registry: each feed's Stats must count its own releases, drops and
// subscribers, while the registry's exported counters sum both.
func TestStatsPerFeedUnderSharedRegistry(t *testing.T) {
	st := buildFeedStore(t)
	reg := obs.NewRegistry()
	a, subA, vcA := openPaused(t, st, feed.Options{Rate: feed.RateMax, Obs: reg})
	b, lagB, _ := openPaused(t, st, feed.Options{Rate: feed.RateMax, Obs: reg, Policy: feed.Drop, SubscriberBuffer: 2})

	if err := a.Resume(); err != nil {
		t.Fatal(err)
	}
	var got []feed.Event
	drive(t, vcA, subA, &got, isEnd)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Resume(); err != nil {
		t.Fatal(err)
	}
	// lagB never drains, so wait on b's own count for its end event.
	for i := 0; b.Stats().Released < uint64(len(got)); i++ {
		runtime.Gosched()
		if i > 5_000_000 {
			t.Fatalf("feed B stalled at %d releases, want %d", b.Stats().Released, len(got))
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	sa, sb := a.Stats(), b.Stats()
	if sa.Released != uint64(len(got)) {
		t.Fatalf("feed A Stats.Released = %d, its subscriber received %d", sa.Released, len(got))
	}
	if sb.Released != sa.Released {
		t.Fatalf("feed B Stats.Released = %d, want %d (same record, unpaced to the end)", sb.Released, sa.Released)
	}
	if sa.Drops != 0 || sb.Drops == 0 || sb.Drops != lagB.Dropped() {
		t.Fatalf("drops: feed A %d (want 0), feed B %d (want its lagging subscriber's %d)", sa.Drops, sb.Drops, lagB.Dropped())
	}
	if sa.Subscribers != 1 || sb.Subscribers != 1 {
		t.Fatalf("subscribers: feed A %d, feed B %d, want 1 each", sa.Subscribers, sb.Subscribers)
	}
	snap := reg.Snapshot()
	if got, want := snap.Counter("feed.released"), sa.Released+sb.Released; got != want {
		t.Fatalf("registry feed.released = %d, want the sum %d", got, want)
	}
	if got := snap.Counter("feed.drops"); got != sb.Drops {
		t.Fatalf("registry feed.drops = %d, want %d", got, sb.Drops)
	}
}

// TestPauseResumeMidEpoch freezes the feed partway through a mark's wait
// and checks position is kept exactly: the release lands at
// resume + (remaining wait at pause time).
func TestPauseResumeMidEpoch(t *testing.T) {
	st := buildFeedStore(t)
	f, sub, vc := openPaused(t, st, feed.Options{Rate: 1})
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}

	var got []feed.Event
	drive(t, vc, sub, &got, func(ev feed.Event) bool { return ev.Kind == feed.KindFlush })
	due1 := t0.Add(time.Second) // clock 1000 × 1ms / 1×
	if at := got[len(got)-1].At; !at.Equal(due1) {
		t.Fatalf("first mark at %v, want %v", at, due1)
	}

	// Pump is now waiting for mark 2 (due t0+2s); epoch 2's burst frames
	// were already released at due1 — drain them so the pause assertion
	// below sees only post-pause activity. Advance 400ms into mark 2's
	// wait, freeze for 10 virtual seconds, resume: the mark owes 600ms.
	waitForWaiter(t, vc)
	for {
		ev, ok := sub.TryRecv()
		if !ok {
			break
		}
		got = append(got, ev)
	}
	vc.Advance(400 * time.Millisecond)
	if err := f.Pause(); err != nil {
		t.Fatal(err)
	}
	if !f.Stats().Paused {
		t.Fatal("Stats.Paused = false after Pause")
	}
	if w := vc.Waiting(); w != 0 {
		t.Fatalf("paused feed still holds %d clock waiters", w)
	}
	vc.Advance(10 * time.Second) // frozen: nothing may release
	if ev, ok := sub.TryRecv(); ok {
		t.Fatalf("paused feed released %v", ev.Kind)
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	resumeAt := due1.Add(400*time.Millisecond + 10*time.Second)

	drive(t, vc, sub, &got, isEnd)
	fl := flushEvents(got)
	want := []time.Time{
		due1,
		resumeAt.Add(600 * time.Millisecond), // mark 2: 1s wait minus 400ms already served
	}
	want = append(want,
		want[1].Add(time.Second), // mark 3 chains normally
		want[1].Add(2*time.Second),
		want[1].Add(2*time.Second), // close mark
	)
	if len(fl) != len(want) {
		t.Fatalf("got %d flush releases, want %d", len(fl), len(want))
	}
	for i, ev := range fl {
		if !ev.At.Equal(want[i]) {
			t.Fatalf("flush %d released at %v, want exactly %v", i, ev.At, want[i])
		}
	}
}

// TestSetRateMidStream changes the sim rate mid-wait and between marks,
// checking played time is never lost and the in-flight wait rescales.
func TestSetRateMidStream(t *testing.T) {
	st := buildFeedStore(t)
	f, sub, vc := openPaused(t, st, feed.Options{Rate: 1})
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}

	// Consume marks 1 and 2 at rate 1 (t0+1s, t0+2s).
	var got []feed.Event
	seen := 0
	drive(t, vc, sub, &got, func(ev feed.Event) bool {
		if ev.Kind == feed.KindFlush {
			seen++
		}
		return seen == 2
	})

	// 250ms into mark 3's wait, drop to rate 0.5: the remaining 750ms of
	// record time now takes 1.5s of feed time.
	waitForWaiter(t, vc)
	vc.Advance(250 * time.Millisecond)
	if err := f.SetRate(0.5); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, sub, &got, func(ev feed.Event) bool { return ev.Kind == feed.KindFlush })
	due3 := t0.Add(2*time.Second + 250*time.Millisecond + 1500*time.Millisecond)
	if at := got[len(got)-1].At; !at.Equal(due3) {
		t.Fatalf("mark 3 released at %v, want exactly %v", at, due3)
	}

	// Between marks, jump to rate 4: mark 4 (1000 ticks after mark 3) takes
	// 250ms from its release instant.
	if err := f.SetRate(4); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, sub, &got, isEnd)
	fl := flushEvents(got)
	due4 := due3.Add(250 * time.Millisecond)
	if at := fl[3].At; !at.Equal(due4) {
		t.Fatalf("mark 4 released at %v, want exactly %v", at, due4)
	}
	if at := fl[4].At; !at.Equal(due4) {
		t.Fatalf("close mark released at %v, want %v", at, due4)
	}
	if r := f.Stats().Rate; r != 4 {
		t.Fatalf("Stats.Rate = %v, want 4", r)
	}
}

// frameDigest renders the replay-visible frame stream of feed events.
func frameDigest(got []feed.Event) []string {
	var out []string
	for _, ev := range got {
		if ev.Kind == feed.KindFrame || ev.Kind == feed.KindFlush {
			out = append(out, fmt.Sprintf("%d:%s", ev.Frame.Kind, ev.Frame.Payload))
		}
	}
	return out
}

// batchDigest renders the frame stream of a batch replay from an epoch.
func batchDigest(t *testing.T, st store.Store, epoch int) []string {
	t.Helper()
	it, blob, err := store.SeekRankIter(st, 0, epoch, core.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blob.Close()
	defer it.Close()
	var out []string
	for {
		f, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d:%s", f.Kind, f.Payload))
	}
}

// TestSeekMatchesBatchReplay pins the time-machine contract: a feed
// seeked to any epoch boundary (via Seek or StartEpoch) yields exactly the
// frame stream a batch replay from that boundary yields.
func TestSeekMatchesBatchReplay(t *testing.T) {
	st := buildFeedStore(t)
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	epochs := len(m.RankIndex(0))
	if epochs == 0 {
		t.Fatal("fixture committed no epochs")
	}
	for epoch := 0; epoch <= epochs; epoch++ {
		for _, via := range []string{"start", "seek"} {
			t.Run(fmt.Sprintf("epoch=%d/via=%s", epoch, via), func(t *testing.T) {
				o := feed.Options{Rate: feed.RateMax}
				if via == "start" {
					o.StartEpoch = epoch
				}
				f, sub, vc := openPaused(t, st, o)
				if via == "seek" {
					if err := f.Seek(epoch); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.Resume(); err != nil {
					t.Fatal(err)
				}
				var got []feed.Event
				drive(t, vc, sub, &got, isEnd)

				if via == "seek" {
					if got[0].Kind != feed.KindSeek || got[0].Epoch != epoch {
						t.Fatalf("first event = %v epoch %d, want seek marker to epoch %d",
							got[0].Kind, got[0].Epoch, epoch)
					}
				}
				gotd, wantd := frameDigest(got), batchDigest(t, st, epoch)
				if len(gotd) != len(wantd) {
					t.Fatalf("feed yielded %d frames, batch replay %d", len(gotd), len(wantd))
				}
				for i := range gotd {
					if gotd[i] != wantd[i] {
						t.Fatalf("frame %d differs: feed %q, batch %q", i, gotd[i], wantd[i])
					}
				}
			})
		}
	}

	// Out-of-range targets fail without killing the feed.
	f, sub, vc := openPaused(t, st, feed.Options{Rate: feed.RateMax})
	if err := f.Seek(epochs + 1); err == nil {
		t.Fatal("seek past last epoch: want error")
	}
	if err := f.Seek(-1); err == nil {
		t.Fatal("negative seek: want error")
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	var got []feed.Event
	drive(t, vc, sub, &got, isEnd)
	if len(frameDigest(got)) != len(batchDigest(t, st, 0)) {
		t.Fatal("feed stream damaged by rejected seeks")
	}
}

// TestCloseAndLateControls pins teardown: Close ends subscriptions, late
// controls report ErrFeedClosed, and a second Close is a no-op.
func TestCloseAndLateControls(t *testing.T) {
	st := buildFeedStore(t)
	f, sub, _ := openPaused(t, st, feed.Options{Rate: 1})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.Recv(); ok {
		t.Fatal("Recv succeeded on closed feed")
	}
	if err := f.Pause(); err != feed.ErrFeedClosed {
		t.Fatalf("Pause after Close = %v, want ErrFeedClosed", err)
	}
	if _, err := f.Subscribe(); err != feed.ErrFeedClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrFeedClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestOpenValidation pins option and manifest validation at Open.
func TestOpenValidation(t *testing.T) {
	st := buildFeedStore(t)
	cases := []feed.Options{
		{Rank: 1},                // run has one rank
		{Rank: -1},               // negative rank
		{Rate: -2},               // negative rate
		{Rate: math.NaN()},       // NaN rate
		{Interval: -time.Second}, // negative interval
		{StartEpoch: -1},         // negative start
		{StartEpoch: 99},         // past last committed cut
		{SubscriberBuffer: 1},    // too small for gap + event
	}
	for i, o := range cases {
		if _, err := feed.Open(st, o); err == nil {
			t.Fatalf("case %d (%+v): want error", i, o)
		}
	}
}
