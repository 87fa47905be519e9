package core

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"cdcreplay/internal/tables"
)

// TestEncoderFrontierOutOfRangeRanks checks the boundary-exception scan
// across FlushAll for sender ranks on both sides of the per-rank clock
// table's dense range (−3, 0, 4095, 4103, 1<<30). A map-based reference
// mirrors the encoder's chunking rule (no with_next rows, so FlushAll
// flushes every stream) and computes each chunk's exceptions from its own
// per-callsite frontier; the decoded record must carry exactly those.
func TestEncoderFrontierOutOfRangeRanks(t *testing.T) {
	const chunkEvents = 16
	ranks := []int32{-3, 0, 4095, 4103, 1 << 30}
	rng := rand.New(rand.NewSource(31))
	type row struct {
		cs uint64
		ev tables.Event
	}
	var rows []row
	var flushAfter []bool
	top := map[int32]uint64{}
	for i := 0; i < 3000; i++ {
		cs := uint64(1 + rng.Intn(2))
		if rng.Intn(6) == 0 {
			rows = append(rows, row{cs, tables.Unmatched(uint64(1 + rng.Intn(3)))})
		} else {
			r := ranks[rng.Intn(len(ranks))]
			top[r] += uint64(1 + rng.Intn(3))
			clk := top[r]
			if rng.Intn(5) == 0 && clk > 8 {
				clk -= uint64(1 + rng.Intn(8)) // a same-sender inversion
			}
			rows = append(rows, row{cs, tables.Matched(r, clk, false)})
		}
		flushAfter = append(flushAfter, rng.Intn(23) == 0)
	}

	// The reference: per-callsite pending rows and map frontiers.
	type stream struct {
		events   []tables.Event
		matched  int
		frontier map[int32]uint64
	}
	streams := map[uint64]*stream{}
	var order []uint64
	want := map[uint64][][]tables.MatchedEntry{}
	cut := func(cs uint64) {
		s := streams[cs]
		if len(s.events) == 0 {
			return
		}
		ex := []tables.MatchedEntry{}
		for _, ev := range s.events {
			if ev.Flag && ev.Clock <= s.frontier[ev.Rank] {
				ex = append(ex, tables.MatchedEntry{Rank: ev.Rank, Clock: ev.Clock})
			}
		}
		for _, ev := range s.events {
			if ev.Flag && ev.Clock > s.frontier[ev.Rank] {
				s.frontier[ev.Rank] = ev.Clock
			}
		}
		want[cs] = append(want[cs], ex)
		s.events, s.matched = nil, 0
	}
	var exceptions int
	for i, r := range rows {
		s := streams[r.cs]
		if s == nil {
			s = &stream{frontier: map[int32]uint64{}}
			streams[r.cs] = s
			order = append(order, r.cs)
		}
		s.events = append(s.events, r.ev)
		if r.ev.Flag {
			if s.matched++; s.matched >= chunkEvents {
				cut(r.cs)
			}
		}
		if flushAfter[i] {
			for _, cs := range order {
				cut(cs)
			}
		}
	}
	for _, cs := range order {
		cut(cs)
		for _, ex := range want[cs] {
			exceptions += len(ex)
		}
	}
	if exceptions == 0 {
		t.Fatal("the reference found no boundary exception: the drive plants none")
	}

	for _, workers := range []int{0, 2} {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, EncoderOptions{ChunkEvents: chunkEvents, EncodeWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var clock uint64
		for i, r := range rows {
			if err := enc.Observe(r.cs, r.ev); err != nil {
				t.Fatal(err)
			}
			clock = max(clock, r.ev.Clock)
			if flushAfter[i] {
				if err := enc.FlushAll(clock); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}

		got := map[uint64][][]tables.MatchedEntry{}
		it, err := OpenRecord(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for {
			f, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if c := f.Chunk; c != nil {
				got[c.Callsite] = append(got[c.Callsite], append([]tables.MatchedEntry{}, c.Exceptions...))
			}
		}
		it.Close()
		for _, cs := range order {
			if len(got[cs]) != len(want[cs]) {
				t.Fatalf("workers=%d callsite %d: %d chunks, want %d", workers, cs, len(got[cs]), len(want[cs]))
			}
			for k := range want[cs] {
				if !slices.Equal(got[cs][k], want[cs][k]) {
					t.Fatalf("workers=%d callsite %d chunk %d: exceptions %v, want %v",
						workers, cs, k, got[cs][k], want[cs][k])
				}
			}
		}
	}
}
