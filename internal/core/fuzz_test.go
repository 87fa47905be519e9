package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// readAll drains a FrameReader, returning the frames it yielded and the
// terminal error (io.EOF for a clean stream).
func readAll(data []byte) (frames []*Frame, err error) {
	fr, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	for {
		f, err := fr.Next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// FuzzFrameReader feeds arbitrary bytes to the frame decoder. Whatever the
// input — truncated, bit-flipped, or pure noise — the decoder must never
// panic, and any mid-stream failure must be a *TruncatedRecordError whose
// prefix counters match the frames actually handed out.
func FuzzFrameReader(f *testing.F) {
	valid := buildRecordBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+3])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Add([]byte("CDCRECv1 old format"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			var trunc *TruncatedRecordError
			if errors.As(err, &trunc) && (trunc.Frames != 0 || trunc.Events != 0) {
				t.Fatalf("open-time truncation reports a non-empty prefix: %v", err)
			}
			return
		}
		defer fr.Close()
		var frames, events, marks uint64
		for {
			fm, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var trunc *TruncatedRecordError
				if !errors.As(err, &trunc) {
					t.Fatalf("mid-stream failure is not a TruncatedRecordError: %v", err)
				}
				if trunc.Frames != frames || trunc.Events != events || trunc.FlushPoints != marks {
					t.Fatalf("truncation prefix %d/%d/%d disagrees with %d frames/%d events/%d marks handed out",
						trunc.Frames, trunc.Events, trunc.FlushPoints, frames, events, marks)
				}
				break
			}
			frames++
			if fm.Chunk != nil {
				events += fm.Chunk.NumMatched
			}
			if fm.Flush {
				marks++
			}
		}
	})
}

// TestFrameReaderTruncatedAtEveryOffset cuts a valid record at every single
// byte offset: each cut must decode to a verified prefix and then report
// truncation (never succeed, never panic), and the prefix never exceeds the
// intact record.
func TestFrameReaderTruncatedAtEveryOffset(t *testing.T) {
	data := buildRecordBytes(t)
	whole, err := readAll(data)
	if err != io.EOF {
		t.Fatalf("intact record: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		frames, err := readAll(data[:cut])
		if err == io.EOF {
			t.Fatalf("cut at %d/%d decoded as a clean stream", cut, len(data))
		}
		if !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("cut at %d: error does not match ErrTruncatedRecord: %v", cut, err)
		}
		if len(frames) > len(whole) {
			t.Fatalf("cut at %d yielded %d frames, more than the %d in the whole record",
				cut, len(frames), len(whole))
		}
	}
}

// TestFrameReaderBitFlipAtEveryOffset flips one bit at every byte offset of
// a valid record. The CRC trailers (and gzip's own checks) must confine the
// damage: decoding either fails as a truncated record or — when the flip
// lands in slack the format ignores — yields at most the original frames.
func TestFrameReaderBitFlipAtEveryOffset(t *testing.T) {
	data := buildRecordBytes(t)
	whole, err := readAll(data)
	if err != io.EOF {
		t.Fatalf("intact record: %v", err)
	}
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		frames, err := readAll(mut)
		if off < len(Magic) {
			if err == io.EOF || errors.Is(err, ErrTruncatedRecord) {
				t.Fatalf("flip inside magic at %d not rejected as a format error: %v", off, err)
			}
		} else if err != io.EOF && !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("flip at %d: unexpected error kind: %v", off, err)
		}
		if len(frames) > len(whole) {
			t.Fatalf("flip at %d yielded %d frames, more than the %d in the whole record",
				off, len(frames), len(whole))
		}
	}
}

// TestFlushPointClockRoundTrip checks flush-point frames carry their clocks
// and collective clocks through a write/read cycle, and that a mark with no
// collective clock keeps its one-varint payload.
func TestFlushPointClockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.FlushPoint(42, 0); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(99, 7); err != nil {
		t.Fatal(err)
	}
	frames, err := readAll(buf.Bytes())
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(frames) != 2 || !frames[0].Flush || !frames[1].Flush {
		t.Fatalf("want two flush frames, got %+v", frames)
	}
	if frames[0].FlushClock != 42 || frames[1].FlushClock != 99 {
		t.Fatalf("clocks %d, %d; want 42, 99", frames[0].FlushClock, frames[1].FlushClock)
	}
	if frames[0].CollClock != 0 || frames[1].CollClock != 7 {
		t.Fatalf("collective clocks %d, %d; want 0, 7", frames[0].CollClock, frames[1].CollClock)
	}
	if len(frames[0].Payload) != 1 {
		t.Fatalf("mark without a collective clock has a %d-byte payload, want 1", len(frames[0].Payload))
	}
}
