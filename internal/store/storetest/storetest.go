// Package storetest is the backend-conformance suite for store.Store
// implementations. A backend package's tests hand Run a factory producing
// fresh empty stores and the suite exercises the whole contract: manifest
// lifecycle atomicity, chunk-index round trips, seek-decode at committed
// cuts on seekable backends, epoch-pinned readers racing a live writer
// (run it under -race), append-resume accounting, crash-salvage through
// the DST P4 property, and copy-out salvage into a second store.
package storetest

import (
	"io"
	"math"
	"slices"
	"sync"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/dst"
	"cdcreplay/internal/store"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// Factory returns a fresh, empty store. Each call must be independent
// storage (the suite creates several runs); cleanup goes through t.
type Factory func(t *testing.T) store.Store

// Run drives the full conformance suite against stores from factory.
func Run(t *testing.T, factory Factory) {
	t.Run("ManifestLifecycle", func(t *testing.T) { testManifestLifecycle(t, factory(t)) })
	t.Run("RecordRoundTrip", func(t *testing.T) { testRecordRoundTrip(t, factory(t)) })
	t.Run("ReplayWhileRecording", func(t *testing.T) { testReplayWhileRecording(t, factory(t)) })
	t.Run("AppendResume", func(t *testing.T) { testAppendResume(t, factory(t)) })
	t.Run("CrashSalvage", func(t *testing.T) {
		for _, seed := range []int64{3, 11, 42} {
			if err := dst.RunCrashSalvage(seed, factory(t)); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	})
	t.Run("SalvageTo", func(t *testing.T) { testSalvageTo(t, factory) })
	t.Run("FinishedRanks", func(t *testing.T) { testFinishedRanks(t, factory(t)) })
	t.Run("SalvageTwice", func(t *testing.T) { testSalvageTwice(t, factory) })
}

// testSalvageTwice salvages a crashed run, reopens it as a restarted
// writer would (Reopen keeps the Salvaged marker) and salvages it again
// with nothing appended. Salvage closes every blob it rewrites cleanly, so
// only Manifest.Finished may prove a rank whole the second time: a rank
// the first salvage trimmed must not come back with an infinite frontier,
// and the second cut must keep what the first kept.
func testSalvageTwice(t *testing.T, factory Factory) {
	trimmed := 0
	for _, seed := range []int64{3, 11, 42} {
		st := factory(t)
		if err := dst.CrashRecord(seed, st); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		first, err := st.Salvage()
		if err != nil {
			t.Fatalf("seed %d: first salvage: %v", seed, err)
		}
		if _, err := st.Reopen(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := st.Salvage()
		if err != nil {
			t.Fatalf("seed %d: second salvage: %v", seed, err)
		}
		for r, rs := range first.Ranks {
			again := second.Ranks[r]
			if rs.Frontier == math.MaxUint64 {
				continue
			}
			trimmed++
			if again.Frontier == math.MaxUint64 {
				t.Errorf("seed %d rank %d: first salvage trimmed it to frontier %d, the second reads it whole", seed, r, rs.Frontier)
			}
			if again.EventsKept != rs.EventsKept {
				t.Errorf("seed %d rank %d: second salvage keeps %d events, the first kept %d", seed, r, again.EventsKept, rs.EventsKept)
			}
		}
	}
	if trimmed == 0 {
		t.Fatal("no seed's first salvage trimmed a rank; the case checks nothing")
	}
}

// testFinishedRanks checks Manifest.Finished through a salvage. Rank 0
// crashes before it writes anything (frontier 0); ranks 1 and 2 close
// cleanly and are marked finished, but rank 1's segments reference rank
// 0's clocks 5 and 10. Salvage trims rank 1, so only rank 2 may stay
// finished. A second salvage sees rank 1's rewritten blob cleanly closed,
// and must neither read it whole nor list it.
func testFinishedRanks(t *testing.T, st store.Store) {
	if err := st.Create(store.Manifest{Ranks: 3, App: "fin"}); err != nil {
		t.Fatal(err)
	}
	// writeRank records one segment per batch, each flushed at its
	// clock, and closes the record cleanly.
	writeRank := func(rank int, clocks []uint64, batches ...[]tables.Event) {
		t.Helper()
		w, err := st.CreateRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := core.NewEncoder(w, core.EncoderOptions{
			SeekableCuts: st.Seekable(),
			OnFlushPoint: func(c, ev uint64, offset int64) error {
				return w.Commit(store.Cut{Clock: c, Events: ev, Offset: offset})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			for _, ev := range b {
				if err := enc.Observe(1, ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.FlushAll(clocks[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeRank(1, []uint64{6, 11},
		[]tables.Event{tables.Matched(0, 5, false)}, []tables.Event{tables.Matched(0, 10, false)})
	writeRank(2, []uint64{4}, []tables.Event{tables.Unmatched(2)})
	for _, rank := range []int{2, 1, 2} {
		if err := st.MarkFinished(rank); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := st.Manifest(); err != nil || !slices.Equal(m.Finished, []int{1, 2}) {
		t.Fatalf("marked ranks 2, 1, 2: finished %v, %v; want [1 2]", m.Finished, err)
	}

	report, err := st.Salvage()
	if err != nil {
		t.Fatal(err)
	}
	if f := report.Ranks[1].Frontier; f == math.MaxUint64 {
		t.Fatalf("salvage kept rank 1 whole although it references rank 0 past its frontier: %+v", report.Ranks)
	}
	m, err := st.Manifest()
	if err != nil || !slices.Equal(m.Finished, []int{2}) {
		t.Fatalf("after salvage: finished %v, %v; want [2]", m.Finished, err)
	}

	if _, err := st.Reopen(); err != nil {
		t.Fatal(err)
	}
	if report, err = st.Salvage(); err != nil {
		t.Fatal(err)
	}
	if report.Ranks[1].Frontier == math.MaxUint64 {
		t.Fatal("second salvage reads trimmed rank 1 whole from its cleanly closed rewritten blob")
	}
	if m, err = st.Manifest(); err != nil || !slices.Equal(m.Finished, []int{2}) {
		t.Fatalf("after a second salvage: finished %v, %v; want [2]", m.Finished, err)
	}
}

// testSalvageTo crash-records a run, copies its consistent prefix into a
// fresh store with store.SalvageTo, and checks the copy: it opens as a
// complete run marked Salvaged, and every rank decodes exactly the events
// the report says were kept. The source stays the incomplete run it was.
func testSalvageTo(t *testing.T, factory Factory) {
	for _, seed := range []int64{3, 11, 42} {
		src, out := factory(t), factory(t)
		if err := dst.CrashRecord(seed, src); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		report, err := store.SalvageTo(src, out)
		if err != nil {
			t.Fatalf("seed %d: SalvageTo: %v", seed, err)
		}
		if report == nil {
			t.Fatalf("seed %d: SalvageTo of an incomplete run reported nothing to recover", seed)
		}
		m, err := store.Open(out, "dst-exchange", len(report.Ranks))
		if err != nil {
			t.Fatalf("seed %d: salvaged copy does not open: %v", seed, err)
		}
		if !m.Salvaged || m.Layout != out.Layout() {
			t.Fatalf("seed %d: salvaged copy: salvaged=%v layout %q, want true and %q", seed, m.Salvaged, m.Layout, out.Layout())
		}
		for _, rs := range report.Ranks {
			got, err := pinnedEvents(out, rs.Rank)
			if err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, rs.Rank, err)
			}
			if got != rs.EventsKept {
				t.Fatalf("seed %d rank %d: copy decodes %d matched events, report kept %d", seed, rs.Rank, got, rs.EventsKept)
			}
		}
		if sm, err := src.Manifest(); err != nil || sm.Complete || sm.Salvaged {
			t.Fatalf("seed %d: copy-out salvage changed the source manifest: %+v, %v", seed, sm, err)
		}
	}
}

// testManifestLifecycle checks Create/WriteManifest/Finalize/Reopen keep
// the manifest consistent and stamped with the backend's layout.
func testManifestLifecycle(t *testing.T, st store.Store) {
	if err := st.Create(store.Manifest{Ranks: 2, App: "conf", Params: map[string]string{"k": "v"}}); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks != 2 || m.App != "conf" || m.Params["k"] != "v" {
		t.Fatalf("created manifest = %+v", m)
	}
	if m.Complete {
		t.Fatal("fresh run already complete")
	}
	if m.Layout != st.Layout() {
		t.Fatalf("manifest layout %q, store layout %q", m.Layout, st.Layout())
	}
	if m.SeekableCuts != st.Seekable() {
		t.Fatalf("manifest seekable %v, store seekable %v", m.SeekableCuts, st.Seekable())
	}
	m.Params["k2"] = "v2"
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	if m, err = st.Manifest(); err != nil || m.Params["k2"] != "v2" {
		t.Fatalf("republished manifest lost params: %+v, %v", m, err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if m, err = st.Manifest(); err != nil || !m.Complete {
		t.Fatalf("finalized manifest not complete: %+v, %v", m, err)
	}
	prev, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Complete {
		t.Fatal("Reopen must return the manifest as it was before clearing")
	}
	if m, err = st.Manifest(); err != nil || m.Complete {
		t.Fatalf("reopened run still complete: %+v, %v", m, err)
	}
}

// testRecordRoundTrip records a deterministic multi-rank workload through
// the store and checks the committed chunk index describes the blobs: one
// monotone entry per epoch, offsets bounded by the blob, every rank
// decodable — and on seekable backends, every committed offset a
// random-access decode point.
func testRecordRoundTrip(t *testing.T, st store.Store) {
	if err := dst.DeterministicRecordTo("exchange", 1, true, core.EncoderOptions{ChunkEvents: 64}, st); err != nil {
		t.Fatal(err)
	}
	m, err := store.Open(st, "dst-exchange", 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < m.Ranks; rank++ {
		idx := m.RankIndex(rank)
		if len(idx) == 0 {
			t.Fatalf("rank %d: no committed index entries", rank)
		}
		var prev store.IndexEntry
		for i, e := range idx {
			if e.Epoch != i+1 {
				t.Fatalf("rank %d entry %d: epoch %d, want %d", rank, i, e.Epoch, i+1)
			}
			if e.Clock < prev.Clock || e.Events < prev.Events || e.Offset <= prev.Offset {
				t.Fatalf("rank %d entry %d not monotone: %+v after %+v", rank, i, e, prev)
			}
			prev = e
		}
		r, err := st.RawRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		if last := idx[len(idx)-1]; last.Offset > r.Size() {
			t.Fatalf("rank %d: committed offset %d beyond blob size %d", rank, last.Offset, r.Size())
		}
		got, err := pinnedEvents(st, rank)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if got != idx[len(idx)-1].Events {
			t.Fatalf("rank %d: decoded %d matched events, final cut says %d", rank, got, idx[len(idx)-1].Events)
		}
		if st.Seekable() {
			for i, e := range idx[:len(idx)-1] {
				if err := decodeFrom(r, e.Offset); err != nil {
					t.Fatalf("rank %d: decode from cut %d (offset %d): %v", rank, i+1, e.Offset, err)
				}
			}
		}
		r.Close() //cdc:allow(errsink) read-side close in a test; decode errors already checked above
	}
}

// decodeFrom decodes a blob suffix starting at a committed cut offset,
// which on a seekable backend must be a gzip member boundary.
func decodeFrom(r store.BlobReader, offset int64) error {
	it, err := core.OpenRecordAt(io.NewSectionReader(r, offset, r.Size()-offset))
	if err != nil {
		return err
	}
	defer it.Close() //cdc:allow(errsink) read-side close; decode errors surface from Next
	for {
		if _, err := it.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// testReplayWhileRecording is the concurrent-reader stress: one writer
// commits epochs continuously while readers open and decode the same rank.
// Every read must land exactly on a committed epoch line — decoded event
// counts appear in the index and never go backwards — and no read may see
// torn bytes. Run the suite under -race: the test also shakes out unsynced
// manifest/blob state inside the backend.
func testReplayWhileRecording(t *testing.T, st store.Store) {
	const epochs = 40
	if err := st.Create(store.Manifest{Ranks: 1, App: "stress"}); err != nil {
		t.Fatal(err)
	}
	events := workload.Stream(workload.StreamParams{
		Events: epochs * 30, Senders: 1, Disorder: 3, UnmatchedProb: 0.2, Seed: 17,
	})

	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		writerErr <- writeEpochs(st, events, epochs)
	}()

	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := pinnedEvents(st, 0)
				if err != nil {
					t.Errorf("pinned read: %v", err)
					return
				}
				if got < lastSeen {
					t.Errorf("committed frontier went backwards: %d after %d", got, lastSeen)
					return
				}
				lastSeen = got
				m, err := st.Manifest()
				if err != nil {
					t.Errorf("manifest mid-record: %v", err)
					return
				}
				if !indexContains(m.RankIndex(0), got) {
					t.Errorf("decoded %d matched events, which is no committed cut", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := pinnedEvents(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.Manifest()
	if want := m.LastCut(0).Events; got != want {
		t.Fatalf("final decode saw %d matched events, final cut says %d", got, want)
	}
}

// writeEpochs streams events into rank 0 in epochs bursts, committing a
// cut after each.
func writeEpochs(st store.Store, events []tables.Event, epochs int) error {
	w, err := st.CreateRank(0)
	if err != nil {
		return err
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents: 64, SeekableCuts: st.Seekable(),
		OnFlushPoint: func(clock, ev uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: ev, Offset: offset})
		},
	})
	if err != nil {
		w.Close() //cdc:allow(errsink) best-effort cleanup; the encoder error is already propagating
		return err
	}
	per := len(events) / epochs
	var clock uint64
	for i, ev := range events {
		if err := enc.Observe(1, ev); err != nil {
			return err
		}
		if ev.Clock > clock {
			clock = ev.Clock
		}
		if (i+1)%per == 0 {
			if err := enc.FlushAll(clock); err != nil {
				return err
			}
		}
	}
	if err := enc.Close(); err != nil {
		return err
	}
	return w.Close()
}

// pinnedEvents streams one rank's record through the store's pinning
// rules and returns the matched events it decoded: on an incomplete run,
// running out of bytes at the pin is the end of the record, not damage.
func pinnedEvents(st store.Store, rank int) (uint64, error) {
	m, err := st.Manifest()
	if err != nil {
		return 0, err
	}
	atPin := func(err error) bool { return !m.Complete && store.TolerableAtPin(err) }
	it, blob, err := store.OpenRankIter(st, rank, core.DecoderOptions{})
	if err != nil {
		if atPin(err) {
			return 0, nil
		}
		return 0, err
	}
	defer blob.Close() //cdc:allow(errsink) read-side close; decode errors surface from Next
	defer it.Close()   //cdc:allow(errsink) read-side close; decode errors surface from Next
	for err == nil {
		_, err = it.Next()
	}
	if err == io.EOF || atPin(err) {
		err = nil
	}
	return it.Events(), err
}

// indexContains reports whether n is a committed cut's event count (zero
// means the reader pinned before any commit).
func indexContains(idx []store.IndexEntry, n uint64) bool {
	if n == 0 {
		return true
	}
	for _, e := range idx {
		if e.Events == n {
			return true
		}
	}
	return false
}

// testAppendResume finalizes a run, reopens it, appends a second stream
// through AppendRank's resume path, and checks the rebuilt whole: the blob
// decodes end to end, the index counts cumulative events across the
// resume boundary, and RankFrontier lands on the total.
func testAppendResume(t *testing.T, st store.Store) {
	if err := st.Create(store.Manifest{Ranks: 1, App: "resume"}); err != nil {
		t.Fatal(err)
	}
	first := workload.Stream(workload.StreamParams{Events: 300, Senders: 1, Disorder: 2, Seed: 5})
	if err := writeEpochs(st, first, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	n1, err := pinnedEvents(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("first stream recorded no matched events")
	}

	if _, err := st.Reopen(); err != nil {
		t.Fatal(err)
	}
	_, clock, err := store.RankFrontier(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, resume, err := st.AppendRank(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resume {
		t.Fatal("AppendRank on an existing blob must report resume")
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents: 64, SeekableCuts: st.Seekable(),
		Resume: true, ResumeClock: clock,
		OnFlushPoint: func(c, ev uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: c, Events: ev, Offset: offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	second := workload.Stream(workload.StreamParams{Events: 200, Senders: 1, Disorder: 2, Seed: 6})
	maxClock := clock
	for _, ev := range second {
		// Keep resumed clocks monotone past the first stream's frontier.
		ev.Clock += clock
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		if ev.Clock > maxClock {
			maxClock = ev.Clock
		}
	}
	if err := enc.FlushAll(maxClock); err != nil {
		t.Fatal(err)
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

	total, err := pinnedEvents(st, 0)
	if err != nil {
		t.Fatalf("decoding across the resume boundary: %v", err)
	}
	var n2 uint64
	for _, ev := range second {
		if ev.Flag {
			n2++
		}
	}
	if total != n1+n2 {
		t.Fatalf("resumed blob decodes %d matched events, want %d + %d", total, n1, n2)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LastCut(0).Events; got != total {
		t.Fatalf("final cut counts %d events, blob decodes %d (resume base lost?)", got, total)
	}
}
