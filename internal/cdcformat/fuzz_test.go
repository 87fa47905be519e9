package cdcformat

import (
	"bytes"
	"testing"

	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// fuzzSeedChunk builds a representative chunk (moves, with-next groups,
// unmatched runs, multi-rank epoch line, sender column) for the seed corpus.
func fuzzSeedChunk() []byte {
	events := []tables.Event{
		tables.MatchedTagged(0, 3, 4, false),
		tables.MatchedTagged(1, 3, 2, false),
		tables.Unmatched(2),
		tables.MatchedTagged(0, 9, 5, true),
		tables.MatchedTagged(1, 3, 5, false),
		tables.MatchedTagged(2, 3, 2, false),
		tables.MatchedTagged(0, 3, 6, false),
	}
	return BuildChunkWithSenders(7, events).Marshal(nil)
}

// FuzzChunkDecode checks decoder totality and re-encode canonicality: on any
// input, Unmarshal either errors or returns a chunk; on success, the chunk
// must survive Marshal → Unmarshal → Marshal as a byte-for-byte fixed point
// (the committed corpus under testdata/fuzz is seeded from chunks that
// cdcdst-explored schedules actually produced — see DESIGN.md §11).
func FuzzChunkDecode(f *testing.F) {
	valid := fuzzSeedChunk()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x00})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Unmarshal(varint.NewReader(data))
		if err != nil {
			return // rejected inputs just must not panic
		}
		enc1 := c.Marshal(nil)
		c2, err := Unmarshal(varint.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-decoding an accepted chunk's encoding failed: %v", err)
		}
		enc2 := c2.Marshal(nil)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode is not a fixed point:\nfirst:  %x\nsecond: %x", enc1, enc2)
		}
	})
}

// fuzzRanks are the sender ranks fuzzEvents draws from: the dense range
// of tables.RankClocks, its edges, and ranks outside it on both sides.
var fuzzRanks = [8]int32{0, 1, 2, 5, -3, maxDenseRank - 1, maxDenseRank + 7, 1 << 30}

// fuzzEvents reads an event stream from data, three bytes a row. Byte 0
// picks the row kind: even is an unmatched run of length byte 1 % 8 (zero
// included); odd is a matched row whose bit 1 sets with_next, bits 2–4
// pick the rank from fuzzRanks and bits 5–7 give the tag. Bytes 1 and 2
// are the clock, so rows tie often and arrive in any order.
func fuzzEvents(data []byte) []tables.Event {
	var events []tables.Event
	for ; len(data) >= 3; data = data[3:] {
		k := data[0]
		if k&1 == 0 {
			events = append(events, tables.Unmatched(uint64(data[1]%8)))
			continue
		}
		clock := uint64(data[1])<<8 | uint64(data[2])
		events = append(events, tables.MatchedTagged(fuzzRanks[k>>2&7], int32(k>>5), clock, k&2 != 0))
	}
	return events
}

// FuzzBuilderMatchesBuildChunk is the differential oracle for the Builder:
// on any event stream, Build + AppendMarshal must produce exactly
// BuildChunk's (or BuildChunkWithSenders') bytes. The reference shares no
// kernel with the Builder: it ranks with permdiff.Rank's stable sort and
// keeps its epoch line and ties in maps. The stream is split in two and
// both halves go through one Builder, so scratch left by the first build
// (a grown dense rank table, a spent sort) meets the second.
func FuzzBuilderMatchesBuildChunk(f *testing.F) {
	f.Add(byte(0), byte(3), []byte{
		1, 0, 4, 5, 0, 2, 0, 2, 0, 3, 0, 5, 7, 0, 5, 9, 0, 2, 1, 0, 6,
	})
	f.Add(byte(1), byte(0), []byte{
		0x11, 0, 9, 0x19, 0, 9, 0x1d, 1, 0, 0x15, 0, 4, 0, 7, 0, 0x3f, 0, 1, 0x1d, 0, 3,
	})
	var desc []byte
	for i := 60; i > 0; i-- {
		desc = append(desc, byte(1|i%8<<2), 0, byte(i/2))
	}
	f.Add(byte(1), byte(20), desc)
	f.Add(byte(0), byte(0), []byte{})

	f.Fuzz(func(t *testing.T, senders, split byte, data []byte) {
		var b Builder
		var got []byte
		events := fuzzEvents(data)
		withSenders := senders&1 != 0
		at := min(int(split), len(events))
		for part, evs := range [][]tables.Event{events[:at], events[at:]} {
			var want *Chunk
			if withSenders {
				want = BuildChunkWithSenders(uint64(part), evs)
			} else {
				want = BuildChunk(uint64(part), evs)
			}
			got = b.AppendMarshal(got[:0], b.Build(uint64(part), evs, withSenders))
			if wantBytes := want.Marshal(nil); !bytes.Equal(got, wantBytes) {
				t.Fatalf("part %d (%d events, senders=%v): Builder bytes differ\nbuilder:   %x\nreference: %x",
					part, len(evs), withSenders, got, wantBytes)
			}
		}
	})
}
