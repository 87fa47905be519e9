package ingestwire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"cdcreplay/internal/tables"
)

func pipePair() (*Conn, *Conn, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewConn(&buf), NewConn(&buf), &buf
}

func TestHelloRoundTrip(t *testing.T) {
	w, r, _ := pipePair()
	want := Hello{Version: Version, Tenant: "acme", Run: "run-7", Rank: 3, Ranks: 8, Resume: 4242}
	if err := w.WriteHello(want); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindHello {
		t.Fatalf("kind = %#x, want Hello", kind)
	}
	got, err := ParseHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello round trip: got %+v want %+v", got, want)
	}
}

func TestHelloValidation(t *testing.T) {
	cases := []struct {
		name string
		h    Hello
	}{
		{"empty tenant", Hello{Version: 1, Tenant: "", Run: "r", Rank: 0, Ranks: 1}},
		{"empty run", Hello{Version: 1, Tenant: "t", Run: "", Rank: 0, Ranks: 1}},
		{"rank out of range", Hello{Version: 1, Tenant: "t", Run: "r", Rank: 4, Ranks: 4}},
		{"zero ranks", Hello{Version: 1, Tenant: "t", Run: "r", Rank: 0, Ranks: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, r, _ := pipePair()
			if err := w.WriteHello(tc.h); err != nil {
				t.Fatal(err)
			}
			_, payload, err := r.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseHello(payload); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ParseHello(%+v) err = %v, want ErrBadFrame", tc.h, err)
			}
		})
	}
}

func TestEventsRoundTrip(t *testing.T) {
	rows := []Row{
		{Callsite: 1, Name: "recv@solver.c:42", Clock: 10, Ev: tables.MatchedTagged(3, 77, 9, false)},
		{Callsite: 1, Clock: 11, Ev: tables.Matched(2, 10, true)},
		{Callsite: 2, Name: "wait@halo.c:7", Clock: 11, Ev: tables.Unmatched(5)},
		{Callsite: 1, Clock: 12, Ev: tables.MatchedTagged(-1, -3, 11, false)},
	}
	w, r, _ := pipePair()
	if err := w.WriteEvents(rows); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEvents {
		t.Fatalf("kind = %#x, want Events", kind)
	}
	got, err := DecodeRows(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	var weight uint64
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], rows[i])
		}
		weight += got[i].Weight()
	}
	if weight != 8 { // 3 matched + unmatched count 5
		t.Fatalf("total weight = %d, want 8", weight)
	}
}

func TestControlFrames(t *testing.T) {
	w, r, _ := pipePair()
	if err := w.WriteWelcome(Welcome{Session: 9, Offset: 1234}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteReject(KindReject, Reject{Code: RejectQuotaSessions, Msg: "tenant at limit"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteOffset(KindAck, 512); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteThrottle(true); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteThrottle(false); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(KindDrain, []byte{0}); err != nil {
		t.Fatal(err)
	}

	kind, payload, err := r.ReadFrame()
	if err != nil || kind != KindWelcome {
		t.Fatalf("frame 1: %#x, %v", kind, err)
	}
	wl, err := ParseWelcome(payload)
	if err != nil || wl.Session != 9 || wl.Offset != 1234 {
		t.Fatalf("welcome = %+v, %v", wl, err)
	}
	kind, payload, err = r.ReadFrame()
	if err != nil || kind != KindReject {
		t.Fatalf("frame 2: %#x, %v", kind, err)
	}
	rj, err := ParseReject(payload)
	if err != nil || rj.Code != RejectQuotaSessions || rj.Msg != "tenant at limit" {
		t.Fatalf("reject = %+v, %v", rj, err)
	}
	if !rj.Code.Retryable() {
		t.Fatal("quota-sessions should be retryable")
	}
	kind, payload, err = r.ReadFrame()
	if err != nil || kind != KindAck {
		t.Fatalf("frame 3: %#x, %v", kind, err)
	}
	off, err := ParseOffset(payload)
	if err != nil || off != 512 {
		t.Fatalf("ack offset = %d, %v", off, err)
	}
	for _, want := range []bool{true, false} {
		kind, payload, err = r.ReadFrame()
		if err != nil || kind != KindThrottle {
			t.Fatalf("throttle frame: %#x, %v", kind, err)
		}
		on, err := ParseThrottle(payload)
		if err != nil || on != want {
			t.Fatalf("throttle = %v, %v; want %v", on, err, want)
		}
	}
	kind, _, err = r.ReadFrame()
	if err != nil || kind != KindDrain {
		t.Fatalf("drain frame: %#x, %v", kind, err)
	}
}

func TestRetryableClassification(t *testing.T) {
	retryable := map[RejectCode]bool{
		RejectVersion:       false,
		RejectMalformed:     false,
		RejectQuotaSessions: true,
		RejectQuotaDisk:     false,
		RejectRankBusy:      true,
		RejectRanksConflict: false,
		RejectDraining:      true,
	}
	for code, want := range retryable {
		if code.Retryable() != want {
			t.Errorf("%v.Retryable() = %v, want %v", code, code.Retryable(), want)
		}
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte {
		w, _, buf := pipePair()
		if err := w.WriteOffset(KindAck, 99); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), buf.Bytes()...)
	}

	t.Run("flipped payload bit", func(t *testing.T) {
		b := frame()
		b[5] ^= 0x40 // payload byte
		_, _, err := NewConn(bytes.NewBuffer(b)).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("flipped crc bit", func(t *testing.T) {
		b := frame()
		b[len(b)-1] ^= 0x01
		_, _, err := NewConn(bytes.NewBuffer(b)).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		b := []byte{0xff, 0xff, 0xff, 0xff, 0x00}
		_, _, err := NewConn(bytes.NewBuffer(b)).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		b := []byte{0, 0, 0, 0}
		_, _, err := NewConn(bytes.NewBuffer(b)).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		b := frame()
		_, _, err := NewConn(bytes.NewBuffer(b[:len(b)-3])).ReadFrame()
		if err == nil || errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want io error (conn failure, not framing)", err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
	})
	t.Run("clean eof", func(t *testing.T) {
		_, _, err := NewConn(bytes.NewBuffer(nil)).ReadFrame()
		if err != io.EOF {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	})
}

func TestDecodeRowsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"count without rows", []byte{3}},
		{"trailing garbage", func() []byte {
			b := AppendRow([]byte{1}, Row{Callsite: 1, Clock: 1, Ev: tables.Matched(0, 1, false)})
			return append(b, 0xaa)
		}()},
		{"zero-count unmatched", func() []byte {
			return append([]byte{1},
				0x00, // flags: unmatched
				0x01, // callsite
				0x05, // clock
				0x00, // count 0: invalid
			)
		}()},
		{"absurd row count", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRows(tc.payload); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeRows(%v) err = %v, want ErrBadFrame", tc.payload, err)
			}
		})
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	w, _, _ := pipePair()
	if err := w.WriteFrame(KindEvents, make([]byte, MaxFrame)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized write err = %v, want ErrBadFrame", err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the daemon's receive path:
// Conn.ReadFrame over the raw stream, then DecodeRows on every payload it
// yields, and the same bytes framed as one valid Events frame so the row
// decoder is reached past the CRC check. Nothing may panic, and any batch
// that decodes must survive a resend: WriteEvents then ReadFrame and
// DecodeRows yield the same rows.
func FuzzReadFrame(f *testing.F) {
	w, _, buf := pipePair()
	rows := []Row{
		{Callsite: 3, Name: "mcb.go:263", Clock: 9, Ev: tables.Matched(1, 11, true)},
		{Callsite: 3, Clock: 10, Ev: tables.Unmatched(4)},
	}
	if err := w.WriteEvents(rows); err != nil {
		f.Fatal(err)
	}
	if err := w.WriteOffset(KindAck, 99); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(AppendRow([]byte{1}, rows[0]))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(bytes.NewBuffer(bytes.Clone(data)))
		for {
			_, payload, err := c.ReadFrame()
			if err != nil {
				break
			}
			roundTrip(t, payload)
		}
		if len(data) < MaxFrame {
			var framed bytes.Buffer
			if err := NewConn(&framed).WriteFrame(KindEvents, data); err != nil {
				t.Fatal(err)
			}
			kind, payload, err := NewConn(&framed).ReadFrame()
			if err != nil || kind != KindEvents || !bytes.Equal(payload, data) {
				t.Fatalf("valid frame read back as kind %#x, %d bytes, %v", kind, len(payload), err)
			}
			roundTrip(t, payload)
		}
	})
}

// roundTrip decodes payload as an Events batch and, when it decodes,
// checks a resend of the rows decodes to the same rows.
func roundTrip(t *testing.T, payload []byte) {
	rows, err := DecodeRows(payload)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("DecodeRows error %v is not ErrBadFrame", err)
		}
		return
	}
	var resent bytes.Buffer
	if err := NewConn(&resent).WriteEvents(rows); err != nil {
		t.Fatal(err)
	}
	_, back, err := NewConn(&resent).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeRows(back)
	if err != nil {
		t.Fatalf("resent batch does not decode: %v", err)
	}
	if !reflect.DeepEqual(again, rows) {
		t.Fatalf("resend changed the rows:\n got %+v\nwant %+v", again, rows)
	}
}
