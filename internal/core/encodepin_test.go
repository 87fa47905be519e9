package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"testing"

	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// pinCase is one seeded encoder drive whose output bytes are pinned by
// digest. The digests were recorded from the encoder before its serial and
// pooled paths were merged; every encode width must keep reproducing them.
type pinCase struct {
	name        string
	opts        EncoderOptions
	seed        int64
	flushEvery  int // rows between FlushAll calls; 0 = never
	invert      int // same-sender inversions planted across flush boundaries
	wantSHA256  string
	wantInverts bool // the drive must produce at least one exception entry
}

var pinCases = []pinCase{
	{name: "default", seed: 101, flushEvery: 700,
		wantSHA256: "9b1ab6bfc7da03c704220433ec9a58c43bfb935025a0fac5063e04c5ebe32340"},
	{name: "omit-senders", opts: EncoderOptions{OmitSenderColumn: true}, seed: 102, flushEvery: 700,
		wantSHA256: "888dab79243521b0b9f3baa6014768da3e15772e5c78fd449ad0f16a87d79791"},
	{name: "seekable", opts: EncoderOptions{SeekableCuts: true}, seed: 103, flushEvery: 500,
		wantSHA256: "6eb49ba73bba4bfb27bc190af790471e8d51296cab9488ed97a8bb145d3b92ed"},
	{name: "small-chunks", opts: EncoderOptions{ChunkEvents: 37}, seed: 104, flushEvery: 211,
		wantSHA256: "323ab89a967b754d39db938dfdfff46f6636bf28b4b80c39985508b7c10dcd6b"},
	{name: "omit-seekable-small", opts: EncoderOptions{ChunkEvents: 64, OmitSenderColumn: true, SeekableCuts: true},
		seed: 105, flushEvery: 97,
		wantSHA256: "8d9f9bd79192708dfb51a872644a46eec9be113b2878de76262bfba33070b364"},
	{name: "inversions", opts: EncoderOptions{ChunkEvents: 128}, seed: 106, flushEvery: 150, invert: 12,
		wantSHA256: "fda80d043bb437b5fc094fb876782d76625ec3b843c3c515c90efed045e45ab9", wantInverts: true},
}

// pinStreams returns two callsites' seeded streams. Grouping is frequent
// so that FlushAll regularly lands inside a with_next group.
func pinStreams(seed int64) [2][]tables.Event {
	a := workload.Stream(workload.StreamParams{Events: 6000, Senders: 8, Disorder: 5,
		UnmatchedProb: 0.3, GroupProb: 0.3, Seed: seed})
	b := workload.Stream(workload.StreamParams{Events: 2500, Senders: 3, Disorder: 2,
		UnmatchedProb: 0.1, GroupProb: 0.2, Seed: seed + 1000})
	return [2][]tables.Event{a, b}
}

// plantInversions swaps the clocks of two same-sender matched events that
// sit on either side of a flush boundary (the encoder sees row index k·every
// as the first row after the k-th FlushAll, counting both callsites' rows).
// The later event then carries a clock at or below that sender's flushed
// frontier, which the encoder must pin with an exception entry.
func plantInversions(rows []pinRow, every, n int) {
	for k := 1; n > 0 && k*every < len(rows); k++ {
		b := k * every
		for i := b - 1; i >= 0 && i >= b-every; i-- {
			ri := &rows[i]
			if !ri.ev.Flag || ri.ev.WithNext {
				continue
			}
			for j := b; j < len(rows) && j < b+every; j++ {
				rj := &rows[j]
				if rj.cs == ri.cs && rj.ev.Flag && rj.ev.Rank == ri.ev.Rank {
					ri.ev.Clock, rj.ev.Clock = rj.ev.Clock, ri.ev.Clock
					n--
					break
				}
			}
			break
		}
	}
}

type pinRow struct {
	cs uint64
	ev tables.Event
}

// pinRows interleaves the two streams in a fixed pattern.
func pinRows(seed int64) []pinRow {
	s := pinStreams(seed)
	var rows []pinRow
	var i, j int
	for n := 0; i < len(s[0]) || j < len(s[1]); n++ {
		if j >= len(s[1]) || (i < len(s[0]) && n%5 != 2) {
			rows = append(rows, pinRow{cs: 10, ev: s[0][i]})
			i++
		} else {
			rows = append(rows, pinRow{cs: 20, ev: s[1][j]})
			j++
		}
	}
	return rows
}

type flushMark struct {
	clock, events uint64
	offset        int64
}

// drivePin runs one pin case at the given width and returns the record
// bytes, the final stats, the OnFlushPoint callbacks, and how many
// FlushAll calls landed inside an open with_next group.
func drivePin(t *testing.T, pc pinCase, rows []pinRow, workers int) ([]byte, Stats, []flushMark, int) {
	t.Helper()
	var buf bytes.Buffer
	var marks []flushMark
	opts := pc.opts
	opts.EncodeWorkers = workers
	opts.OnFlushPoint = func(clock, events uint64, offset int64) error {
		marks = append(marks, flushMark{clock, events, offset})
		return nil
	}
	enc, err := NewEncoder(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.RegisterCallsite(10, "pin.go:10"); err != nil {
		t.Fatal(err)
	}
	open := map[uint64]bool{}
	var straddles int
	var clock uint64
	for n, r := range rows {
		if n == len(rows)/3 {
			if err := enc.RegisterCallsite(20, "pin.go:20"); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Observe(r.cs, r.ev); err != nil {
			t.Fatal(err)
		}
		if r.ev.Flag {
			open[r.cs] = r.ev.WithNext
			if r.ev.Clock > clock {
				clock = r.ev.Clock
			}
		}
		if pc.flushEvery > 0 && n%pc.flushEvery == pc.flushEvery-1 {
			if open[10] || open[20] {
				straddles++
			}
			if err := enc.FlushAll(clock); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), enc.Stats(), marks, straddles
}

// countExceptions decodes a record and counts its exception entries.
func countExceptions(t *testing.T, data []byte) int {
	t.Helper()
	it, err := OpenRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var n int
	for {
		f, err := it.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Chunk != nil {
			n += len(f.Chunk.Exceptions)
		}
	}
}

// TestEncoderBytesPinned pins the encoder's output bytes by digest for
// seeded workload streams across sender-column, seekable-cut, chunk-size,
// straddling-group and exception cases, at every encode width. Widths must
// also agree on Stats and on every OnFlushPoint callback.
func TestEncoderBytesPinned(t *testing.T) {
	for _, pc := range pinCases {
		t.Run(pc.name, func(t *testing.T) {
			rows := pinRows(pc.seed)
			if pc.invert > 0 {
				plantInversions(rows, pc.flushEvery, pc.invert)
			}
			var (
				wantStats Stats
				wantMarks []flushMark
			)
			for _, workers := range []int{0, 1, 2, 4, 8} {
				data, stats, marks, straddles := drivePin(t, pc, rows, workers)
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != pc.wantSHA256 {
					t.Errorf("workers=%d: sha256 %s, want %s (%d bytes)", workers, got, pc.wantSHA256, len(data))
				}
				if workers == 0 {
					wantStats, wantMarks = stats, marks
					if pc.flushEvery > 0 && straddles == 0 {
						t.Error("no FlushAll landed inside a with_next group")
					}
					if ex := countExceptions(t, data); pc.wantInverts != (ex > 0) {
						t.Errorf("exception entries = %d, want any: %v", ex, pc.wantInverts)
					}
					continue
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
				}
				if !reflect.DeepEqual(marks, wantMarks) {
					t.Errorf("workers=%d: flush-point callbacks diverge from workers=0", workers)
				}
			}
		})
	}
}

// TestSerialEncoderAllocs pins the steady-state allocation cost of the
// inline (EncodeWorkers 0) encoder: once its Builder, pending buffers and
// gzip state are warm, flushing a chunk must not allocate per event.
func TestSerialEncoderAllocs(t *testing.T) {
	const chunk = 256
	enc, err := NewEncoder(io.Discard, EncoderOptions{ChunkEvents: chunk})
	if err != nil {
		t.Fatal(err)
	}
	events := workload.Stream(workload.StreamParams{Events: chunk, Senders: 8, Disorder: 4,
		UnmatchedProb: 0.2, GroupProb: 0.1, Seed: 7})
	// Every run re-feeds the same rows with clocks lifted past the previous
	// run's, so no row becomes a boundary exception.
	var span uint64
	for _, ev := range events {
		span = max(span, ev.Clock+1)
	}
	feed := func() {
		for i := range events {
			if events[i].Flag {
				events[i].Clock += span
			}
		}
		for _, ev := range events {
			if err := enc.Observe(1, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		feed()
	}
	before := enc.Stats().Chunks
	perRun := testing.AllocsPerRun(50, feed)
	chunks := float64(enc.Stats().Chunks-before) / 51
	if chunks < 1 {
		t.Fatalf("%.2f chunks flushed per run, want ≥ 1", chunks)
	}
	const maxPerChunk = 2
	if got := perRun / chunks; got > maxPerChunk {
		t.Errorf("%.1f allocs per chunk (%.3f per event), want ≤ %d", got, perRun/chunk, maxPerChunk)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}
