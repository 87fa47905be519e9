package replay

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// chunkList is a ChunkSource over prebuilt chunks.
type chunkList []*cdcformat.Chunk

func (c *chunkList) Next() (*cdcformat.Chunk, error) {
	if len(*c) == 0 {
		return nil, ErrExhausted
	}
	next := (*c)[0]
	*c = (*c)[1:]
	return next, nil
}

func (c *chunkList) Close() error { return nil }

// TestIdlePollAllocatesNothing pins the cost of a poll that makes no
// progress — the common case while a release waits for its message: with
// many receives outstanding, nothing in the mailbox and a chunk loaded, one
// pass of the match loop (harvest, collect, probe check) must not allocate.
func TestIdlePollAllocatesNothing(t *testing.T) {
	const outstanding = 64
	var events []tables.Event
	for c := uint64(1); c <= outstanding; c++ {
		events = append(events, tables.Matched(1, c, false))
	}
	src := &chunkList{cdcformat.BuildChunkWithSenders(0, events)}
	meta := &RecordMeta{Callsites: map[uint64]*CallsiteMeta{0: {Chunks: 1, Events: outstanding}}}
	w := simmpi.NewWorld(2, simmpi.Options{})
	rp := NewStream(lamport.WrapManual(w.Comm(0)), meta, src, Options{DisableMFID: true})
	defer rp.Close()
	s := rp.streams[0]
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*simmpi.Request, outstanding)
	for i := range reqs {
		req, err := rp.Irecv(simmpi.AnySource, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	s.learnSpecs(reqs)

	var pollErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rp.pollBelow(); err != nil {
			pollErr = err
		}
		s.collect(rp)
		if err := rp.ensureProbes(reqs); err != nil {
			pollErr = err
		}
	})
	if pollErr != nil {
		t.Fatal(pollErr)
	}
	if len(rp.pool) != 0 || s.held() != 0 || rp.stats.ProbesPosted != 0 {
		t.Fatalf("idle poll made progress: pool %d, collected %d, probes %d", len(rp.pool), s.held(), rp.stats.ProbesPosted)
	}
	if allocs != 0 {
		t.Fatalf("idle poll allocates %.1f times, want 0", allocs)
	}
}

// TestReleaseAllocatesNothing pins the release path: once the chunk is
// decoded and its messages harvested, a replayed Testsome that stages and
// releases the group at the cursor reuses the Replayer's staged, slot and
// result buffers and allocates nothing.
func TestReleaseAllocatesNothing(t *testing.T) {
	const events, runs = 128, 100
	var evs []tables.Event
	for c := uint64(1); c <= events; c++ {
		evs = append(evs, tables.MatchedTagged(1, 1, c, false))
	}
	src := &chunkList{cdcformat.BuildChunkWithSenders(0, evs)}
	meta := &RecordMeta{Callsites: map[uint64]*CallsiteMeta{0: {Chunks: 1, Events: events}}}
	w := simmpi.NewWorld(2, simmpi.Options{Delivery: func(dst, src, tag int, seq uint64) uint64 { return 0 }})
	rp := NewStream(lamport.WrapManual(w.Comm(0)), meta, src, Options{DisableMFID: true, Timeout: 5 * time.Second})
	defer rp.Close()
	if err := rp.streams[0].ensure(); err != nil {
		t.Fatal(err)
	}
	sender := lamport.Wrap(w.Comm(1))
	reqs := make([]*simmpi.Request, events)
	for i := range reqs {
		req, err := rp.Irecv(simmpi.AnySource, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
		if err := sender.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The warm-up call harvests every message; each measured call releases
	// the next recorded event.
	bad := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if idxs, sts, err := rp.Testsome(reqs); err != nil || len(idxs) != 1 || len(sts) != 1 {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%d of %d replayed Testsome calls did not release one event", bad, runs+1)
	}
	if got := rp.Stats().Released; got != runs+1 {
		t.Fatalf("released %d events, want %d", got, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("replayed Testsome allocates %.1f times per release, want 0", allocs)
	}
}

// TestIncrementalCollectMatchesRescan is the oracle for collect's
// watermark: after every collect, a full rescan of the pool under the
// stream's current window, exception pins and specs must find no member
// the incremental scan left behind. It runs the random-program family in
// both record formats, plus the paper-format workloads of
// TestFuzzPaperFaithfulFormat.
func TestIncrementalCollectMatchesRescan(t *testing.T) {
	var mu sync.Mutex
	var checks, misses int
	var first string
	afterCollect = func(s *stream, rp *Replayer) {
		var missed []string
		for i := range rp.pool {
			if p := &rp.pool[i]; s.member(p) {
				missed = append(missed, fmt.Sprintf("(%d,%d,tag%d,seq%d)", p.st.Source, p.st.Clock, p.st.Tag, p.seq))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		checks++
		if len(missed) > 0 {
			misses++
			if first == "" {
				first = fmt.Sprintf("%s chunk %d (watermark %d) left %v in the pool", s.name, s.ci-1, s.scanned, missed)
			}
		}
	}
	defer func() { afterCollect = nil }()

	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("senders/seed%d", seed), func(t *testing.T) {
			recordThenReplay(t, 4, randomProgram(int64(seed), 6, 3, false))
		})
		// The paper format cannot replay arbitrary random programs (see
		// TestFuzzPaperFaithfulFormat): the Axiom 1 rule stalls or an
		// optimistic guess is caught. Every collect up to that point is
		// still checked; any other failure fails the test.
		t.Run(fmt.Sprintf("paper/seed%d", seed), func(t *testing.T) {
			a := randomProgram(int64(seed), 6, 3, false)
			_, files := runRecordOpts(t, 4, 1001, a, true)
			w := simmpi.NewWorld(4, simmpi.Options{Seed: 2002, MaxJitter: 8})
			err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
				rp, err := Open(lamport.WrapManual(mpi), RecordBytes(files[rank]), Options{Timeout: time.Second})
				if err != nil {
					return err
				}
				defer rp.Close()
				if _, err := a(rp); err != nil {
					return err
				}
				return rp.Verify()
			})
			if err != nil && !errors.Is(err, ErrStalled) && !errors.Is(err, ErrDiverged) {
				t.Fatalf("paper-format replay: %v", err)
			}
		})
	}
	for _, c := range []struct {
		name string
		n    int
		app  app
	}{
		{"paper/testsome-pool", 5, testsomePoolApp(7, 4)},
		{"paper/gather-wait", 4, gatherWaitApp(8)},
		{"paper/waitany", 3, waitanyApp(5)},
	} {
		t.Run(c.name, func(t *testing.T) { recordThenReplayOpts(t, c.n, c.app, true) })
	}
	if misses > 0 {
		t.Fatalf("%d of %d collects missed pooled members; first: %s", misses, checks, first)
	}
	if checks == 0 {
		t.Fatal("no collect ran; the oracle is vacuous")
	}
}
