package baseline

import (
	"bytes"
	"math/rand"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/tables"
)

func TestRawSizeIs162BitsPerEvent(t *testing.T) {
	r := NewRaw()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := r.Observe(0, tables.Matched(3, uint64(i), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64((n*tables.BitsPerRow + 7) / 8)
	if r.BytesWritten() != want {
		t.Fatalf("raw size = %d bytes, want %d (%d bits/event)", r.BytesWritten(), want, tables.BitsPerRow)
	}
}

// bitReader mirrors bitWriter for verification.
type bitReader struct {
	buf []byte
	pos int // bit position
}

func (b *bitReader) readBits(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := b.pos / 8
		bitIdx := 7 - b.pos%8
		v = v<<1 | uint64(b.buf[byteIdx]>>bitIdx&1)
		b.pos++
	}
	return v
}

func TestBitPackingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	events := []tables.Event{
		tables.Matched(0, 0, false),
		tables.Matched(2147483647, 1<<63, true),
		tables.Unmatched(12345),
	}
	for i := 0; i < 50; i++ {
		events = append(events, tables.Matched(int32(rng.Intn(1000)), rng.Uint64(), rng.Intn(2) == 0))
	}

	var buf bytes.Buffer
	bw := bitWriter{w: &buf}
	for _, ev := range events {
		packEvent(&bw, ev)
	}
	if err := bw.flush(); err != nil {
		t.Fatal(err)
	}

	br := bitReader{buf: buf.Bytes()}
	for i, want := range events {
		got := tables.Event{
			Count:    br.readBits(64),
			Flag:     br.readBits(1) == 1,
			WithNext: br.readBits(1) == 1,
			Rank:     int32(uint32(br.readBits(32))),
			Clock:    br.readBits(64),
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestGzipSmallerThanRawOnRedundantStream(t *testing.T) {
	raw, gz := NewRaw(), NewGzip()
	for i := 0; i < 5000; i++ {
		ev := tables.Matched(1, uint64(i), false)
		if err := raw.Observe(0, ev); err != nil {
			t.Fatal(err)
		}
		if err := gz.Observe(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if gz.BytesWritten() >= raw.BytesWritten() {
		t.Fatalf("gzip %d >= raw %d", gz.BytesWritten(), raw.BytesWritten())
	}
}

func TestREFlushesOnChunkBoundary(t *testing.T) {
	re := NewRE(4)
	for i := 0; i < 10; i++ {
		if err := re.Observe(0, tables.Matched(0, uint64(i+1), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if re.BytesWritten() == 0 {
		t.Fatal("RE wrote nothing")
	}
}

// The Fig. 13 ordering on a representative near-ordered stream:
// raw > gzip > RE > CDC-no-MFID >= CDC is the shape the paper reports
// (allowing RE vs gzip some slack at small sizes, the strict claims are
// raw >> gzip and CDC << gzip).
func TestFig13ShapeOnSyntheticStream(t *testing.T) {
	rng := rand.New(rand.NewSource(77))

	cdcEnc, err := core.NewEncoder(&bytes.Buffer{}, core.EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noMFEnc, err := core.NewEncoder(&bytes.Buffer{}, core.EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name string
		m    Method
		// merge folds every callsite into 0: CDC without MF identification.
		merge bool
	}{
		{"w/o compression", NewRaw(), false},
		{"gzip", NewGzip(), false},
		{"CDC (RE)", NewRE(0), false},
		{"CDC (RE + PE + LPE)", noMFEnc, true},
		{"CDC", cdcEnc, false},
	}
	observe := func(merge bool, m Method, cs uint64, ev tables.Event) {
		if merge {
			cs = 0
		}
		if err := m.Observe(cs, ev); err != nil {
			t.Fatal(err)
		}
	}

	// Two callsites with different regularity, near-ordered clocks.
	clocks := map[int32]uint64{}
	for i := 0; i < 30000; i++ {
		cs := uint64(1 + i%2)
		r := int32(rng.Intn(6))
		clocks[r] += uint64(1 + rng.Intn(2))
		ev := tables.Matched(r, clocks[r], false)
		if rng.Intn(10) == 0 {
			// One draw per row: every method compresses the same stream.
			un := tables.Unmatched(uint64(1 + rng.Intn(4)))
			for _, m := range methods {
				observe(m.merge, m.m, cs, un)
			}
		}
		for _, m := range methods {
			observe(m.merge, m.m, cs, ev)
		}
	}
	sizes := map[string]int64{}
	for _, m := range methods {
		if err := m.m.Close(); err != nil {
			t.Fatal(err)
		}
		sizes[m.name] = m.m.BytesWritten()
		t.Logf("%-22s %8d bytes", m.name, m.m.BytesWritten())
	}
	if sizes["gzip"] >= sizes["w/o compression"] {
		t.Error("gzip did not beat raw")
	}
	if sizes["CDC"] >= sizes["gzip"] {
		t.Error("CDC did not beat gzip")
	}
	if sizes["CDC (RE)"] >= sizes["w/o compression"] {
		t.Error("RE did not beat raw")
	}
}
