package obshttp

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/feed"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/workload"
)

// feedFixture records a small single-rank run and opens an unpaced feed
// over it, its instruments registered into reg.
func feedFixture(t *testing.T, reg *obs.Registry) *feed.Feed {
	t.Helper()
	st := shardstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 1, App: "obshttp-test"}); err != nil {
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
	evs := workload.Stream(workload.StreamParams{Events: 120, Senders: 3, Disorder: 2, Seed: 5})
	for i, ev := range evs {
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		if (i+1)%40 == 0 {
			if err := enc.FlushAll(uint64(1000 * (i + 1))); err != nil {
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

	f, err := feed.Open(st, feed.Options{
		Rate:   feed.RateMax,
		Clock:  feed.NewVirtualClock(time.Unix(0, 0)),
		Paused: true,
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFeedEndpointStreamsNDJSON pins the /feed contract: one JSON object
// per release, flush marks and the end marker present, and the feed's
// gauges visible on /metrics from the same handler.
func TestFeedEndpointStreamsNDJSON(t *testing.T) {
	reg := obs.NewRegistry()
	f := feedFixture(t, reg)
	srv := httptest.NewServer(HandlerWithFeed(reg.Snapshot, f))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/feed")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}

	var lines []feedLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l feedLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no feed lines streamed")
	}
	var flushes, frames int
	for _, l := range lines {
		switch l.Kind {
		case "flush":
			flushes++
			if l.Clock == 0 {
				t.Errorf("flush line without clock: %+v", l)
			}
		case "frame":
			frames++
		}
	}
	if flushes == 0 || frames == 0 {
		t.Fatalf("stream had %d flush and %d frame lines; want both > 0", flushes, frames)
	}
	if last := lines[len(lines)-1]; last.Kind != "end" || last.Err != "" {
		t.Fatalf("last line = %+v, want clean end marker", last)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].Seq <= lines[i-1].Seq {
			t.Fatalf("seq regressed at line %d: %d after %d", i, lines[i].Seq, lines[i-1].Seq)
		}
	}

	// The same handler serves the feed's instruments.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Counter("feed.released") == 0 {
		t.Error("feed.released = 0 on /metrics after a full stream")
	}
	if snap.Gauge("feed.rate.milli").Value == 0 {
		t.Error("feed.rate.milli gauge missing from /metrics")
	}

	// After the stream ended, a new subscriber is refused cleanly.
	resp2, err := http.Get(srv.URL + "/feed")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-end /feed status = %d, want %d", resp2.StatusCode, http.StatusServiceUnavailable)
	}
}
