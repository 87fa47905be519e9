package cdc

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/feed"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/shardstore"
)

// recordFeedFixture records the MCB app into a fresh sharded store
// (seekable cuts) with a deterministic flush cadence, so the run carries
// several epoch cuts.
// Rank 1 commits between roughly 40 and 60 epochs depending on the
// message interleaving, always more than the fixed starts of
// TestOpenFeedStreamsRecord.
func recordFeedFixture(t *testing.T) Store {
	t.Helper()
	st := shardstore.New(t.TempDir())
	var mu sync.Mutex
	var tally float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 41, MaxJitter: 8})
	_, err := Record(w, mcbApp(&tally, &mu),
		WithStore(st), WithApp("mcb"), WithFlushEveryRows(32))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// drainFeed consumes a max-rate feed subscription to stream end. The
// virtual clock never has waiters at FeedRateMax, so plain Recv is safe.
func drainFeed(t *testing.T, sub *FeedSubscription) []FeedEvent {
	t.Helper()
	var out []FeedEvent
	for {
		ev, ok := sub.Recv()
		if !ok {
			return out
		}
		out = append(out, ev)
		if ev.Kind == FeedEnd {
			// Recv reports !ok once the closed hub drains.
			if ev.Err != "" {
				t.Fatalf("feed ended with error: %s", ev.Err)
			}
		}
	}
}

// feedFrames renders the replay-visible frame stream of feed events.
func feedFrames(evs []FeedEvent) []string {
	var out []string
	for _, ev := range evs {
		if ev.Kind == FeedFrame || ev.Kind == FeedFlush {
			out = append(out, fmt.Sprintf("%d:%s", ev.Frame.Kind, ev.Frame.Payload))
		}
	}
	return out
}

// batchFrames renders a batch replay's frame stream from an epoch.
func batchFrames(t *testing.T, st Store, rank, epoch int) []string {
	t.Helper()
	it, blob, err := store.SeekRankIter(st, rank, epoch, core.DecoderOptions{})
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

// TestOpenFeedStreamsRecord is the facade's end-to-end pin: a feed opened
// through cdc options streams exactly the frames a batch replay decodes,
// for the head of the record, for fixed mid-record start epochs and for a
// start at the record's end. The epoch count varies with the interleaving,
// so the end case is named "end" to keep subtest names stable.
func TestOpenFeedStreamsRecord(t *testing.T) {
	st := recordFeedFixture(t)
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	epochs := len(m.RankIndex(1))
	starts := []int{0, 1, 23, 29, 30}
	if last := starts[len(starts)-1]; epochs <= last {
		t.Fatalf("fixture committed %d epochs, want more than %d", epochs, last)
	}

	names := make([]string, 0, len(starts)+1)
	for _, start := range starts {
		names = append(names, fmt.Sprintf("start=%d", start))
	}
	starts = append(starts, epochs)
	names = append(names, "start=end")
	for i, start := range starts {
		t.Run(names[i], func(t *testing.T) {
			f, err := OpenFeed(
				WithStore(st), WithApp("mcb"),
				WithFeedRank(1),
				WithFeedRate(FeedRateMax),
				WithFeedClock(feed.NewVirtualClock(time.Unix(0, 0))),
				WithStartEpoch(start),
				WithFeedPaused(),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sub, err := f.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Resume(); err != nil {
				t.Fatal(err)
			}
			got := feedFrames(drainFeed(t, sub))
			want := batchFrames(t, st, 1, start)
			if len(got) != len(want) {
				t.Fatalf("feed yielded %d frames, batch replay %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("frame %d differs: feed %q, batch %q", i, got[i], want[i])
				}
			}
			if s := f.Stats(); s.Epochs != epochs {
				t.Fatalf("Stats.Epochs = %d, want %d", s.Epochs, epochs)
			}
		})
	}
}

// TestOpenFeedSeekAndControls drives the facade's control surface: seek
// emits a marker and restarts the stream at the target epoch, and a
// wrong-app open is rejected.
func TestOpenFeedSeekAndControls(t *testing.T) {
	st := recordFeedFixture(t)
	if _, err := OpenFeed(WithStore(st), WithApp("not-mcb")); err == nil {
		t.Fatal("wrong app name accepted")
	}

	f, err := OpenFeed(
		WithStore(st),
		WithFeedRate(FeedRateMax),
		WithFeedClock(feed.NewVirtualClock(time.Unix(0, 0))),
		WithFeedPaused(),
		WithSlowConsumer(FeedDrop),
		WithSubscriberBuffer(1<<12),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sub, err := f.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	target := f.Epochs()
	if err := f.Seek(target); err != nil {
		t.Fatal(err)
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	got := drainFeed(t, sub)
	if got[0].Kind != FeedSeek || got[0].Epoch != target {
		t.Fatalf("first event = %v epoch %d, want seek marker to %d", got[0].Kind, got[0].Epoch, target)
	}
	if last := got[len(got)-1]; last.Kind != FeedEnd {
		t.Fatalf("stream ended with %v, want end marker", last.Kind)
	}
	if frames := feedFrames(got); len(frames) != 0 {
		t.Fatalf("seek to the final boundary yielded %d frames, want 0", len(frames))
	}
}

// TestFeedOptionValidation pins the feed option contract: bounds and mode
// scoping in both directions.
func TestFeedOptionValidation(t *testing.T) {
	expectOptionError(t, modeFeed, "WithFeedRank", WithFeedRank(-1))
	expectOptionError(t, modeFeed, "WithFeedRate", WithFeedRate(0))
	expectOptionError(t, modeFeed, "WithFeedRate", WithFeedRate(-1))
	expectOptionError(t, modeFeed, "WithFeedInterval", WithFeedInterval(0))
	expectOptionError(t, modeFeed, "WithFeedClock", WithFeedClock(nil))
	expectOptionError(t, modeFeed, "WithSubscriberBuffer", WithSubscriberBuffer(1))
	expectOptionError(t, modeFeed, "WithSubscriberBuffer", WithSubscriberBuffer(1<<20+1))
	expectOptionError(t, modeFeed, "WithSlowConsumer", WithSlowConsumer(FeedPolicy(9)))
	expectOptionError(t, modeFeed, "WithStartEpoch", WithStartEpoch(-1))

	// Feed options are feed-scoped; other modes reject them.
	expectOptionError(t, modeRecord, "WithFeedRate", WithFeedRate(2))
	expectOptionError(t, modeReplay, "WithFeedPaused", WithFeedPaused())
	expectOptionError(t, modeRead, "WithStartEpoch", WithStartEpoch(1))
	// And replay/record options stay out of feed mode.
	expectOptionError(t, modeFeed, "WithTimeout", WithTimeout(time.Second))
	expectOptionError(t, modeFeed, "WithChunkEvents", WithChunkEvents(128))

	// A valid feed option set passes, including the decode-side knob.
	valid := []Option{
		WithDir("rec"), WithFeedRank(2), WithFeedRate(0.5),
		WithFeedInterval(time.Millisecond), WithSubscriberBuffer(16),
		WithSlowConsumer(FeedDrop), WithStartEpoch(3), WithFeedPaused(),
		WithDecodeWorkers(2),
	}
	if _, err := newConfig(modeFeed, valid); err != nil {
		t.Errorf("valid feed options rejected: %v", err)
	}
}
