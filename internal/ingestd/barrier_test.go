package ingestd

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"cdcreplay/internal/ingestclient"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
)

// TestAckBarrierWithinSalvageCut drives the ack barrier directly on a
// 3-rank run where an EARLIER segment breaks the cut while the tail
// segment does not: rank 0's first segment references rank 1 at clock
// 100, its second only rank 2, and rank 1 has sealed only to clock 50.
// Salvage trims rank 0 at its first segment, so the barrier must ack none
// of rank 0's events: every acked offset has to survive a crash and the
// restart's SalvageAll.
func TestAckBarrierWithinSalvageCut(t *testing.T) {
	root := t.TempDir()
	srv, err := New(Config{Root: root, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r, rej := srv.openRun(newTenantState("acme", Quota{}, nil), ingestwire.Hello{Tenant: "acme", Run: "cut", Ranks: 3})
	if rej != nil {
		t.Fatal(rej.Msg)
	}

	r.mu.Lock()
	rs := make([]*rankState, r.ranks)
	for rank := range rs {
		if rs[rank], err = srv.openRank(r, rank); err != nil {
			t.Fatal(err)
		}
	}
	// sealRow observes one row and seals it as its own segment.
	sealRow := func(rank int, clock uint64, ev tables.Event) {
		t.Helper()
		row := ingestwire.Row{Callsite: 1, Clock: clock, Ev: ev}
		if rs[rank].offset == 0 {
			row.Name = "recv@cut.c:1"
		}
		if err := r.observe(rs[rank], row); err != nil {
			t.Fatal(err)
		}
		if err := r.seal(rs[rank]); err != nil {
			t.Fatal(err)
		}
	}
	sealRow(2, 20, tables.Unmatched(1))
	sealRow(1, 50, tables.Matched(2, 10, false))
	sealRow(0, 101, tables.Matched(1, 100, false))
	sealRow(0, 102, tables.Matched(2, 5, false))
	r.advanceAcks()
	acked := make([]uint64, r.ranks)
	for rank := range acked {
		acked[rank] = rs[rank].acked
	}
	r.mu.Unlock()
	srv.Kill()

	sroot := dirstore.OpenRoot(root)
	if _, err := sroot.SalvageAll(); err != nil {
		t.Fatal(err)
	}
	st, err := sroot.Open("acme/cut")
	if err != nil {
		t.Fatal(err)
	}
	for rank, a := range acked {
		kept, _, err := store.RankFrontier(st, rank)
		if err != nil {
			t.Fatal(err)
		}
		if a > kept {
			t.Errorf("rank %d: acked %d events, but salvage kept %d", rank, a, kept)
		}
	}
	if acked[1] == 0 || acked[2] == 0 {
		t.Errorf("acked %v: ranks 1 and 2 form a consistent cut and should be acked", acked)
	}
}

// TestFinishedRankCountsAfterRestart: a rank that finished before a daemon
// crash never reattaches, so after the restart its cleanly closed record
// alone must stand for it at the ack barrier and at finalization. Rank 0
// streams 50 events and finishes; rank 1, whose receives reference rank
// 0's clocks 1..50, streams half, the daemon is killed and restarted, and
// rank 1 resumes onto the references to clocks 26..50. Rank 1 must get
// DONE and the run must finalize holding both streams.
func TestFinishedRankCountsAfterRestart(t *testing.T) {
	const events = 50
	root := t.TempDir()
	newServer := func() *Server {
		return startServer(t, func(c *Config) { c.Root, c.FlushInterval = root, 2*time.Millisecond })
	}
	dial := func(addr string, rank int) *ingestclient.Client {
		t.Helper()
		cfg := clientConfig(addr, "acme", "fin", rank, 2)
		cfg.AckTimeout = 3 * time.Second
		c, err := ingestclient.Dial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rows := [2][]ingestwire.Row{}
	for i := uint64(1); i <= events; i++ {
		rows[0] = append(rows[0], ingestwire.Row{Callsite: 1, Clock: i, Ev: tables.Unmatched(1)})
		rows[1] = append(rows[1], ingestwire.Row{Callsite: 1, Clock: i + 1, Ev: tables.Matched(0, i, false)})
	}
	rows[0][0].Name, rows[1][0].Name = "test@send.c:1", "recv@recv.c:1"
	send := func(c *ingestclient.Client, rows []ingestwire.Row) {
		t.Helper()
		for _, r := range rows {
			if err := c.Observe(r.Callsite, r.Name, r.Ev, r.Clock); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}

	srv := newServer()
	c0 := dial(srv.Addr(), 0)
	send(c0, rows[0])
	if err := c0.Close(); err != nil {
		t.Fatalf("rank 0 Close: %v", err)
	}
	c1 := dial(srv.Addr(), 1)
	send(c1, rows[1][:events/2])
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c1.Acked() < events/2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 acked %d of %d events before the kill", c1.Acked(), events/2)
		}
	}
	srv.Kill()

	srv2 := newServer()
	defer drain(t, srv2)
	c1 = dial(srv2.Addr(), 1)
	resumeAt := c1.Acked()
	if resumeAt < events/2 || resumeAt > events {
		t.Fatalf("rank 1 resumes at %d, want an acked frontier in [%d, %d]", resumeAt, events/2, events)
	}
	send(c1, rows[1][resumeAt:])
	if err := c1.Close(); err != nil {
		t.Fatalf("rank 1 Close after the restart: %v", err)
	}
	// A rank 0 client whose DONE was lost redials the finalized run and
	// gets it at its full offset.
	if err := dial(srv2.Addr(), 0).Close(); err != nil {
		t.Fatalf("rank 0 Close after redialing the finished run: %v", err)
	}
	st := openRun(t, root, "acme", "fin", 2)
	for rank, want := range rows {
		if err := VerifyRank(st, rank, want); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestTrimmedRankStaysOpenAcrossTwoCrashes: a rank that salvage trimmed
// must not count as finished after a later crash, although the first
// salvage rewrote its blob cleanly closed; nor may the second salvage read
// it whole. Rank 1 finishes with a receive of rank 0's clock 20 while
// rank 0 has sealed only to clock 10, and the daemon is killed: salvage
// trims rank 1. Rank 0 reattaches, and the daemon is killed again before
// rank 1's client returns. After the second restart rank 0 finishes with
// a receive of rank 1's clock 30. The run must stay open, that receive
// unacked, until rank 1 resumes and finishes.
func TestTrimmedRankStaysOpenAcrossTwoCrashes(t *testing.T) {
	root := t.TempDir()
	restart := func() (*Server, *run) { return restartRun(t, root, "trim") }
	attach, observe := attachRank(t), observeRow(t)
	send0 := ingestwire.Row{Callsite: 1, Name: "send@trim.c:1", Clock: 10, Ev: tables.Unmatched(1)}
	recv0 := ingestwire.Row{Callsite: 2, Name: "recv@trim.c:2", Clock: 31, Ev: tables.Matched(1, 30, false)}
	recv1 := ingestwire.Row{Callsite: 1, Name: "recv@trim.c:1", Clock: 21, Ev: tables.Matched(0, 20, false)}

	srv, r := restart()
	r.mu.Lock()
	rs0, rs1 := attach(srv, r, 0), attach(srv, r, 1)
	observe(r, rs0, send0)
	if err := r.seal(rs0); err != nil {
		t.Fatal(err)
	}
	observe(r, rs1, recv1)
	if err := r.finishRank(rs1); err != nil {
		t.Fatal(err)
	}
	r.mu.Unlock()
	srv.Kill()

	srv, r = restart()
	if f := srv.Salvaged()[0].Report.Ranks[1].Frontier; f == math.MaxUint64 {
		t.Fatal("the first salvage kept rank 1 whole; the test needs it trimmed")
	}
	r.mu.Lock()
	if r.rankState[1] != nil {
		t.Fatal("rank 1 was trimmed by salvage, yet the reopened run counts it finished")
	}
	attach(srv, r, 0)
	r.mu.Unlock()
	srv.Kill()

	srv, r = restart()
	defer srv.Kill()
	if f := srv.Salvaged()[0].Report.Ranks[1].Frontier; f == math.MaxUint64 {
		t.Fatal("the second salvage reads trimmed rank 1 whole from its cleanly closed rewritten blob")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rankState[1] != nil {
		t.Fatal("after the second salvage, the reopened run counts trimmed rank 1 finished")
	}
	rs0 = attach(srv, r, 0)
	observe(r, rs0, recv0)
	if err := r.finishRank(rs0); err != nil {
		t.Fatal(err)
	}
	r.advanceAcks()
	if err := r.maybeFinalize(); err != nil {
		t.Fatal(err)
	}
	if r.finalized || len(rs0.segments) == 0 {
		t.Fatalf("finalized %v with rank 0's receive of rank 1's clock 30 acked; rank 1 has not resumed", r.finalized)
	}

	rs1 = attach(srv, r, 1)
	if rs1.offset != 0 {
		t.Fatalf("rank 1 resumes at %d, want 0: its only segment was trimmed", rs1.offset)
	}
	observe(r, rs1, recv1)
	if err := r.finishRank(rs1); err != nil {
		t.Fatal(err)
	}
	r.advanceAcks()
	if err := r.maybeFinalize(); err != nil {
		t.Fatal(err)
	}
	if !r.finalized {
		t.Fatal("run not finalized after both ranks finished")
	}
	for rank, want := range [][]ingestwire.Row{{send0, recv0}, {recv1}} {
		if err := VerifyRank(r.st, rank, want); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestDrainedRanksAreNotFinished: Drain closes the records of ranks whose
// clients have not finished, and those records read whole after the
// restart. Neither rank may count as finished, or the first one to resume
// and finish would finalize the run over the other's missing tail.
func TestDrainedRanksAreNotFinished(t *testing.T) {
	root := t.TempDir()
	attach, observe := attachRank(t), observeRow(t)
	srv, r := restartRun(t, root, "drained")
	r.mu.Lock()
	observe(r, attach(srv, r, 0), ingestwire.Row{Callsite: 1, Name: "send@dr.c:1", Clock: 10, Ev: tables.Unmatched(1)})
	observe(r, attach(srv, r, 1), ingestwire.Row{Callsite: 1, Name: "recv@dr.c:1", Clock: 11, Ev: tables.Matched(0, 10, false)})
	r.mu.Unlock()
	drain(t, srv)

	srv, r = restartRun(t, root, "drained")
	defer srv.Kill()
	for _, rs := range srv.Salvaged()[0].Report.Ranks {
		if rs.Frontier != math.MaxUint64 {
			t.Fatalf("rank %d: frontier %d; the test needs Drain to leave whole records", rs.Rank, rs.Frontier)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rankState) != 0 {
		t.Fatalf("%d drained ranks count as finished after the restart", len(r.rankState))
	}
}

// restartRun starts a daemon over root, which salvages what a previous one
// left, and reopens run acme/name of two ranks as a client's hello would.
// The daemon is not started, so the test drives its run directly.
func restartRun(t *testing.T, root, name string) (*Server, *run) {
	t.Helper()
	srv, err := New(Config{Root: root, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r, rej := srv.openRun(newTenantState("acme", Quota{}, nil), ingestwire.Hello{Tenant: "acme", Run: name, Ranks: 2})
	if rej != nil {
		t.Fatal(rej.Msg)
	}
	return srv, r
}

// attachRank returns a function that opens a rank of a run as a client's
// attach would. Callers hold the run's mu.
func attachRank(t *testing.T) func(*Server, *run, int) *rankState {
	return func(srv *Server, r *run, rank int) *rankState {
		t.Helper()
		rs, err := srv.openRank(r, rank)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
}

// observeRow returns a function that feeds one row into a rank. Callers
// hold the run's mu.
func observeRow(t *testing.T) func(*run, *rankState, ingestwire.Row) {
	return func(r *run, rs *rankState, row ingestwire.Row) {
		t.Helper()
		if err := r.observe(rs, row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainedRankResumesAfterRestart: Drain cuts a client that has not
// finished, and its rank must stay open for it. After a restart the
// client resumes from the salvaged frontier and finishes; a drained rank
// taken for a finished one would refuse its remaining rows.
func TestDrainedRankResumesAfterRestart(t *testing.T) {
	root := t.TempDir()
	withRoot := func(cfg *Config) { cfg.Root = root }
	srv := startServer(t, withRoot)
	rows := expectedRows(singleRankStream(2000, 5))
	c, err := ingestclient.Dial(clientConfig(srv.Addr(), "acme", "dr", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	half := groupEnd(rows, len(rows)/2)
	streamRows(t, c, rows[:half])
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c.Acked() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("nothing acked before the drain")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with an unfinished client: %v, want the deadline", err)
	}

	srv2 := startServer(t, withRoot)
	defer drain(t, srv2)
	c2, err := ingestclient.Dial(clientConfig(srv2.Addr(), "acme", "dr", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	resumeAt := c2.Acked()
	var idx int
	var cum uint64
	for ; cum < resumeAt; idx++ {
		cum += rows[idx].Weight()
	}
	if cum != resumeAt {
		t.Fatalf("resumed frontier %d is not on a row boundary (%d)", resumeAt, cum)
	}
	streamRows(t, c2, rows[idx:])
	if err := c2.Close(); err != nil {
		t.Fatalf("Close after resuming a drained rank: %v", err)
	}
	if err := VerifyRank(openRun(t, root, "acme", "dr", 1), 0, rows); err != nil {
		t.Fatal(err)
	}
}
