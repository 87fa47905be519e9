package ingestclient

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/tables"
)

func TestBackoffDelayBounds(t *testing.T) {
	b := Backoff{
		Base:        10 * time.Millisecond,
		Cap:         400 * time.Millisecond,
		Jitter:      0.25,
		MaxAttempts: 10,
		Rand:        rand.New(rand.NewSource(42)),
	}
	cases := []struct {
		attempt int
		ideal   time.Duration
	}{
		{0, 10 * time.Millisecond},
		{1, 20 * time.Millisecond},
		{2, 40 * time.Millisecond},
		{3, 80 * time.Millisecond},
		{4, 160 * time.Millisecond},
		{5, 320 * time.Millisecond},
		{6, 400 * time.Millisecond}, // capped: 640ms > Cap
		{7, 400 * time.Millisecond},
		{60, 400 * time.Millisecond}, // shift overflow must still cap
	}
	for _, tc := range cases {
		// Jitter is multiplicative: each draw lands in ideal±25%.
		lo := time.Duration(float64(tc.ideal) * (1 - b.Jitter))
		hi := time.Duration(float64(tc.ideal) * (1 + b.Jitter))
		for i := 0; i < 50; i++ {
			d := b.Delay(tc.attempt)
			if d < lo || d > hi {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", tc.attempt, d, lo, hi)
			}
		}
	}
}

func TestBackoffJitterSpreads(t *testing.T) {
	// Two clients with different seeds must not retry in lockstep —
	// jitter exists to break thundering herds after a daemon restart.
	a := Backoff{Base: 10 * time.Millisecond, Cap: time.Second, Jitter: 0.2,
		Rand: rand.New(rand.NewSource(1))}
	b := Backoff{Base: 10 * time.Millisecond, Cap: time.Second, Jitter: 0.2,
		Rand: rand.New(rand.NewSource(2))}
	same := 0
	for i := 0; i < 20; i++ {
		if a.Delay(3) == b.Delay(3) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("independent backoffs produced identical delay sequences")
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	b.fill()
	if b.Base <= 0 || b.Cap < b.Base || b.MaxAttempts <= 0 || b.Rand == nil {
		t.Fatalf("fill left invalid defaults: %+v", b)
	}
	d := b.Delay(0)
	if d <= 0 || d > 2*b.Base {
		t.Fatalf("Delay(0) = %v, want near Base %v", d, b.Base)
	}
}

func TestRejectedErrorRetryable(t *testing.T) {
	cases := []struct {
		code ingestwire.RejectCode
		want bool
	}{
		{ingestwire.RejectQuotaSessions, true},
		{ingestwire.RejectRankBusy, true},
		{ingestwire.RejectDraining, true},
		{ingestwire.RejectVersion, false},
		{ingestwire.RejectQuotaDisk, false},
		{ingestwire.RejectMalformed, false},
		{ingestwire.RejectRanksConflict, false},
	}
	for _, tc := range cases {
		e := &RejectedError{Code: tc.code}
		if e.Retryable() != tc.want {
			t.Errorf("RejectedError{%v}.Retryable() = %v, want %v", tc.code, e.Retryable(), tc.want)
		}
		if e.Error() == "" {
			t.Errorf("RejectedError{%v} has empty message", tc.code)
		}
	}
}

// stubSession serves one connection of a stub daemon: it welcomes the
// client at resume, then acks every EVENTS frame through the stream's
// offset and hangs up once acked events have been acked.
func stubSession(t *testing.T, nc net.Conn, resume, acked uint64) {
	defer nc.Close()
	wc := ingestwire.NewConn(nc)
	if kind, _, err := wc.ReadFrame(); err != nil || kind != ingestwire.KindHello {
		t.Errorf("stub: handshake read kind %#x, err %v", kind, err)
		return
	}
	if err := wc.WriteWelcome(ingestwire.Welcome{Session: 1, Offset: resume}); err != nil {
		return
	}
	off := resume
	for off < acked {
		kind, payload, err := wc.ReadFrame()
		if err != nil {
			return
		}
		if kind != ingestwire.KindEvents {
			continue
		}
		rows, err := ingestwire.DecodeRows(payload)
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		for _, r := range rows {
			off += r.Weight()
		}
		if err := wc.WriteOffset(ingestwire.KindAck, off); err != nil {
			return
		}
	}
}

// TestFrontierRegressionIsPermanent: after a session acks three events and
// drops, the stub daemon welcomes the reconnect at a resume offset the
// client's frontier rules out. Reconnect must fail with a FrontierError
// after exactly one dial instead of retrying to MaxAttempts.
func TestFrontierRegressionIsPermanent(t *testing.T) {
	const acked = 3
	for _, resume := range []uint64{1, 100} {
		var dials atomic.Int32
		var wg sync.WaitGroup
		cfg := Config{
			Addr: "stub", Run: "r", Ranks: 1, BatchRows: 1,
			Backoff: Backoff{Base: time.Millisecond, Cap: time.Millisecond, MaxAttempts: 5},
			Dialer: func(string) (net.Conn, error) {
				client, server := net.Pipe()
				r, a := uint64(0), uint64(acked)
				if dials.Add(1) > 1 {
					r, a = resume, 0
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					stubSession(t, server, r, a)
				}()
				return client, nil
			},
		}
		c, err := Dial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < acked; i++ {
			if err := c.Observe(7, "cs", tables.Matched(0, uint64(i+1), false), 0); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.Acked() < acked {
			if time.Now().After(deadline) {
				t.Fatalf("stub acked %d of %d events", c.Acked(), acked)
			}
			time.Sleep(time.Millisecond)
		}
		err = c.Observe(7, "", tables.Matched(0, acked+1, false), 0)
		var fe *FrontierError
		if !errors.As(err, &fe) || fe.Resume != resume {
			t.Fatalf("resume %d: err = %v, want a FrontierError at resume %d", resume, err, resume)
		}
		if got := dials.Load(); got != 2 {
			t.Fatalf("resume %d: %d dials, want the first session plus exactly one reconnect attempt", resume, got)
		}
		wg.Wait()
	}
}
