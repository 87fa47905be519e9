package ingestd

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cdcreplay/internal/ingestclient"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// startServer launches a daemon over a temp root with fast housekeeping.
func startServer(t *testing.T, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Addr:          "127.0.0.1:0",
		Root:          t.TempDir(),
		FlushInterval: 5 * time.Millisecond,
		Obs:           obs.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// singleRankStream generates one rank's event stream: all matched events
// source from rank 0 so a ranks=1 run has no cross-rank references.
func singleRankStream(events int, seed int64) []tables.Event {
	return workload.Stream(workload.StreamParams{
		Events:        events,
		Senders:       1,
		Disorder:      2,
		UnmatchedProb: 0.3,
		GroupProb:     0.15,
		Seed:          seed,
	})
}

// expectedRows converts a stream into the wire rows a client emits,
// alternating between two callsites at MF-group boundaries (a WithNext
// group must stay within one callsite's stream).
func expectedRows(events []tables.Event) []ingestwire.Row {
	names := map[uint64]string{1: "recv@solver.c:42", 2: "wait@halo.c:7"}
	named := map[uint64]bool{}
	rows := make([]ingestwire.Row, 0, len(events))
	cs := uint64(1)
	for _, ev := range events {
		row := ingestwire.Row{Callsite: cs, Ev: ev}
		if !named[cs] {
			row.Name = names[cs]
			named[cs] = true
		}
		rows = append(rows, row)
		if !ev.Flag || !ev.WithNext {
			if cs == 1 {
				cs = 2
			} else {
				cs = 1
			}
		}
	}
	return rows
}

// streamRows feeds rows through a client.
func streamRows(t *testing.T, c *ingestclient.Client, rows []ingestwire.Row) {
	t.Helper()
	for _, r := range rows {
		if err := c.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
}

func clientConfig(addr, tenant, run string, rank, ranks int) ingestclient.Config {
	return ingestclient.Config{
		Addr: addr, Tenant: tenant, Run: run, Rank: rank, Ranks: ranks,
		Backoff: ingestclient.Backoff{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: 20},
	}
}

// openRun opens tenant/run under root through the dir-layout store and
// checks its manifest is complete for the given world size.
func openRun(t *testing.T, root, tenant, run string, ranks int) store.Store {
	t.Helper()
	st, err := dirstore.OpenRoot(root).Open(tenant + "/" + run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "ingest", ranks); err != nil {
		t.Fatalf("run %s/%s should open complete: %v", tenant, run, err)
	}
	return st
}

func drain(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestIngestRoundTrip(t *testing.T) {
	srv := startServer(t, nil)
	rows := expectedRows(singleRankStream(800, 1))

	c, err := ingestclient.Dial(clientConfig(srv.Addr(), "acme", "run1", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	streamRows(t, c, rows)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := openRun(t, srv.cfg.Root, "acme", "run1", 1)
	if err := VerifyRank(st, 0, rows); err != nil {
		t.Fatalf("record does not match ingested stream: %v", err)
	}

	snap := srv.cfg.Obs.Snapshot()
	var weight uint64
	for _, r := range rows {
		weight += r.Weight()
	}
	if got := snap.Counter("ingest.events"); got != weight {
		t.Errorf("ingest.events = %d, want %d", got, weight)
	}
	if got := snap.Counter("ingest.sessions.total"); got != 1 {
		t.Errorf("ingest.sessions.total = %d, want 1", got)
	}
	if got := snap.Counter("ingest.tenant.acme.bytes"); got == 0 {
		t.Error("ingest.tenant.acme.bytes = 0, want > 0")
	}
	drain(t, srv)
}

// TestWindowEdgeGroupNoDeadlock is the closed-loop regression for a full
// unacked window: the daemon only acks at a seal, and it cannot seal while
// an MF group is open. With a window smaller than one batch, nothing is on
// the wire when the window fills unless the client flushes before
// waiting; and with a with_next group spanning the window edge, the row
// that closes the group must be admitted past the full window, or neither
// side can move.
func TestWindowEdgeGroupNoDeadlock(t *testing.T) {
	srv := startServer(t, nil)
	var events []tables.Event
	clock := uint64(0)
	add := func(n int, withNext bool) {
		for i := 0; i < n; i++ {
			clock += 2
			events = append(events, tables.Matched(0, clock, withNext))
		}
	}
	add(3, false)
	add(10, true) // a 11-row group across the 8-event window edge
	add(21, false)
	rows := expectedRows(events)

	cfg := clientConfig(srv.Addr(), "acme", "edge", 0, 1)
	cfg.WindowEvents = 8
	cfg.BatchRows = 64
	c, err := ingestclient.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for _, r := range rows {
			if err := c.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
				done <- err
				return
			}
		}
		done <- c.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("client stalled: %d of %d events acked with a window of %d", c.Acked(), len(rows), cfg.WindowEvents)
	}
	st := openRun(t, srv.cfg.Root, "acme", "edge", 1)
	if err := VerifyRank(st, 0, rows); err != nil {
		t.Fatalf("record does not match ingested stream: %v", err)
	}
	drain(t, srv)
}

func TestIngestMultiTenantMultiRank(t *testing.T) {
	srv := startServer(t, nil)
	const ranks = 3
	// Identical streams per rank (same seed): every cross-rank clock a
	// rank references is covered by the referenced rank's own stream, so
	// the ack barrier's fixed point completes.
	events := workload.Stream(workload.StreamParams{
		Events: 400, Senders: ranks, Disorder: 3, UnmatchedProb: 0.2, GroupProb: 0.1, Seed: 7,
	})
	rows := expectedRows(events)

	errs := make(chan error, 2*ranks)
	for _, tenant := range []string{"acme", "globex"} {
		for rank := 0; rank < ranks; rank++ {
			go func(tenant string, rank int) {
				c, err := ingestclient.Dial(clientConfig(srv.Addr(), tenant, "mr", rank, ranks))
				if err != nil {
					errs <- err
					return
				}
				for _, r := range rows {
					if err := c.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
						errs <- err
						return
					}
				}
				errs <- c.Close()
			}(tenant, rank)
		}
	}
	for i := 0; i < 2*ranks; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	for _, tenant := range []string{"acme", "globex"} {
		st := openRun(t, srv.cfg.Root, tenant, "mr", ranks)
		for rank := 0; rank < ranks; rank++ {
			if err := VerifyRank(st, rank, rows); err != nil {
				t.Fatalf("tenant %s rank %d: %v", tenant, rank, err)
			}
		}
	}
	drain(t, srv)
}

// rawHello dials and sends one handshake, returning the response frame.
func rawHello(t *testing.T, addr string, h ingestwire.Hello) (byte, ingestwire.Reject) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wc := ingestwire.NewConn(nc)
	if err := wc.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := wc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if kind != ingestwire.KindReject {
		return kind, ingestwire.Reject{}
	}
	rej, err := ingestwire.ParseReject(payload)
	if err != nil {
		t.Fatal(err)
	}
	return kind, rej
}

func TestHandshakeRejections(t *testing.T) {
	srv := startServer(t, func(c *Config) {
		c.Quotas = map[string]Quota{"capped": {MaxSessions: 1}}
	})
	defer srv.Kill()

	// Occupy capped's only slot and run1's rank 0 with a live client.
	c, err := ingestclient.Dial(clientConfig(srv.Addr(), "capped", "run1", 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //cdc:allow(errsink) test teardown

	cases := []struct {
		name string
		h    ingestwire.Hello
		want ingestwire.RejectCode
	}{
		{"version", ingestwire.Hello{Version: 99, Tenant: "t", Run: "r", Rank: 0, Ranks: 1}, ingestwire.RejectVersion},
		{"unsafe tenant", ingestwire.Hello{Version: 1, Tenant: "a\\b", Run: "r", Rank: 0, Ranks: 1}, ingestwire.RejectMalformed},
		{"session quota", ingestwire.Hello{Version: 1, Tenant: "capped", Run: "other", Rank: 0, Ranks: 1}, ingestwire.RejectQuotaSessions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind, rej := rawHello(t, srv.Addr(), tc.h)
			if kind != ingestwire.KindReject || rej.Code != tc.want {
				t.Fatalf("got kind %#x code %v, want reject %v", kind, rej.Code, tc.want)
			}
		})
	}

	// Conflicting world size and rank-busy need the run to exist: the
	// live client declared run1 with 2 ranks and holds rank 0.
	t.Run("ranks conflict", func(t *testing.T) {
		// Different tenant so the session quota does not mask the check;
		// same tenant+run is what conflicts.
		_, rej := rawHello(t, srv.Addr(), ingestwire.Hello{Version: 1, Tenant: "capped", Run: "run1", Rank: 0, Ranks: 3})
		if rej.Code != ingestwire.RejectQuotaSessions {
			t.Fatalf("capped tenant should hit session quota first, got %v", rej.Code)
		}
	})
	t.Run("rank busy", func(t *testing.T) {
		srv2 := startServer(t, nil)
		defer srv2.Kill()
		c2, err := ingestclient.Dial(clientConfig(srv2.Addr(), "t", "r", 0, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close() //cdc:allow(errsink) test teardown
		_, rej := rawHello(t, srv2.Addr(), ingestwire.Hello{Version: 1, Tenant: "t", Run: "r", Rank: 0, Ranks: 2})
		if rej.Code != ingestwire.RejectRankBusy {
			t.Fatalf("second session on a held rank: got %v, want RankBusy", rej.Code)
		}
		_, rej = rawHello(t, srv2.Addr(), ingestwire.Hello{Version: 1, Tenant: "t", Run: "r", Rank: 1, Ranks: 3})
		if rej.Code != ingestwire.RejectRanksConflict {
			t.Fatalf("world-size conflict: got %v, want RanksConflict", rej.Code)
		}
	})
	t.Run("draining", func(t *testing.T) {
		srv3 := startServer(t, nil)
		defer srv3.Kill()
		srv3.draining.Store(true)
		_, rej := rawHello(t, srv3.Addr(), ingestwire.Hello{Version: 1, Tenant: "t", Run: "r", Rank: 0, Ranks: 1})
		if rej.Code != ingestwire.RejectDraining {
			t.Fatalf("draining server: got %v, want Draining", rej.Code)
		}
	})

	snap := srv.cfg.Obs.Snapshot()
	if got := snap.Counter("ingest.rejects"); got < 3 {
		t.Errorf("ingest.rejects = %d, want >= 3", got)
	}
}

func TestThrottleBackpressure(t *testing.T) {
	srv := startServer(t, func(c *Config) {
		c.QueueCap = 16
	})
	var throttledOn atomic.Bool
	cfg := clientConfig(srv.Addr(), "acme", "tt", 0, 1)
	cfg.BatchRows = 4
	cfg.OnThrottle = func(on bool) {
		if on {
			throttledOn.Store(true)
		}
	}

	// Suspend draining so the bounded queue must fill and shed.
	srv.pauseWorkers.Store(true)
	c, err := ingestclient.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := expectedRows(singleRankStream(600, 3))
	unpaused := make(chan struct{})
	go func() {
		// Let the client wedge against the full queue, then release.
		time.Sleep(50 * time.Millisecond)
		srv.pauseWorkers.Store(false)
		for _, w := range srv.workers {
			w.wake()
		}
		close(unpaused)
	}()
	streamRows(t, c, rows)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-unpaused

	snap := srv.cfg.Obs.Snapshot()
	if got := snap.Counter("ingest.throttles"); got == 0 {
		t.Error("ingest.throttles = 0, want > 0 (queue never shed)")
	}
	if got := snap.Counter("ingest.queue.stalls"); got == 0 {
		t.Error("ingest.queue.stalls = 0, want > 0")
	}
	if max := snap.Gauge("ingest.queue.depth").Max; max > 16 {
		t.Errorf("queue depth high-water %d exceeds capacity 16", max)
	}
	if !throttledOn.Load() {
		t.Error("client OnThrottle(true) never fired")
	}
	st := openRun(t, srv.cfg.Root, "acme", "tt", 1)
	if err := VerifyRank(st, 0, rows); err != nil {
		t.Fatalf("throttled stream corrupted: %v", err)
	}
	drain(t, srv)
}

func TestDiskQuotaKillsSession(t *testing.T) {
	srv := startServer(t, func(c *Config) {
		c.Quotas = map[string]Quota{"tiny": {MaxDiskBytes: 512}}
	})
	defer srv.Kill()

	cfg := clientConfig(srv.Addr(), "tiny", "dq", 0, 1)
	cfg.Backoff.MaxAttempts = 3
	c, err := ingestclient.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := expectedRows(singleRankStream(20000, 5))
	var gotErr error
	for _, r := range rows {
		if gotErr = c.Observe(r.Callsite, r.Name, r.Ev, 0); gotErr != nil {
			break
		}
	}
	if gotErr == nil {
		gotErr = c.Close()
	}
	var re *ingestclient.RejectedError
	if !errors.As(gotErr, &re) || re.Code != ingestwire.RejectQuotaDisk {
		t.Fatalf("over-quota stream ended with %v, want RejectQuotaDisk", gotErr)
	}
	if re.Retryable() {
		t.Fatal("disk quota rejection must be permanent")
	}
}

func TestServerKillSalvageResume(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewRegistry()
	newServer := func() *Server {
		srv, err := New(Config{
			Addr: "127.0.0.1:0", Root: root,
			FlushInterval: 2 * time.Millisecond,
			Obs:           reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := newServer()
	rows := expectedRows(singleRankStream(3000, 9))

	cfg := clientConfig(srv.Addr(), "acme", "kr", 0, 1)
	cfg.Backoff = ingestclient.Backoff{Base: 5 * time.Millisecond, Cap: 100 * time.Millisecond, MaxAttempts: 200}
	c, err := ingestclient.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Stream the first half, kill the daemon mid-flight, restart over the
	// same root, and resume from the salvaged frontier.
	half := len(rows) / 2
	streamRows(t, c, rows[:half])
	ackedBefore := c.Acked()
	srv.Kill()

	srv2 := newServer()
	// The client's config addr is stale; re-dial a fresh client at the
	// new address and replay everything the dead server never acked.
	// (The daemon process owns the address in production; in-process we
	// get a new port, so resume goes through a second Dial.)
	cfg2 := cfg
	cfg2.Addr = srv2.Addr()
	c2, err := ingestclient.Dial(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh client adopts the server's salvaged frontier as its offset;
	// the test replays the suffix the dead server never made durable.
	resumeAt := c2.Acked()

	// Find the row index whose cumulative weight reaches resumeAt.
	var cum uint64
	idx := 0
	for idx < len(rows) && cum < resumeAt {
		cum += rows[idx].Weight()
		idx++
	}
	if cum != resumeAt {
		t.Fatalf("salvaged frontier %d does not fall on a row boundary (cum %d)", resumeAt, cum)
	}
	if resumeAt < ackedBefore {
		t.Fatalf("salvaged frontier %d lost acked events (acked %d before kill)", resumeAt, ackedBefore)
	}
	streamRows(t, c2, rows[idx:])
	if err := c2.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}

	st := openRun(t, root, "acme", "kr", 1)
	if err := VerifyRank(st, 0, rows); err != nil {
		t.Fatalf("kill+salvage+resume lost or duplicated events: %v", err)
	}
	drain(t, srv2)
}
