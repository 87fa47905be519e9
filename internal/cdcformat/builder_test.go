package cdcformat

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"cdcreplay/internal/tables"
)

// maxDenseRank is the top of tables.RankClocks' dense range; ranks from it
// up take the overflow map.
const maxDenseRank = 1 << 12

// randomTaggedEvents is randomEvents plus nonzero tags and occasional
// cross-sender clock ties, exercising every chunk table.
func randomTaggedEvents(rng *rand.Rand, n int) []tables.Event {
	clock := map[int32]uint64{}
	var events []tables.Event
	lastUnmatched := false
	for i := 0; i < n; i++ {
		if !lastUnmatched && rng.Intn(4) == 0 {
			events = append(events, tables.Unmatched(uint64(1+rng.Intn(6))))
			lastUnmatched = true
			continue
		}
		lastUnmatched = false
		r := int32(rng.Intn(6))
		clock[r] += uint64(1 + rng.Intn(4))
		events = append(events, tables.MatchedTagged(r, int32(rng.Intn(3)), clock[r], rng.Intn(5) == 0))
	}
	return events
}

// TestBuilderMatchesBuildChunk pins the Builder's scratch-based path to the
// allocating one: for random streams, with and without the sender column,
// the marshaled bytes must be identical — the property the parallel encode
// pipeline's byte-identity guarantee rests on. One Builder is reused across
// all trials so scratch recycling is exercised, not just the cold path.
func TestBuilderMatchesBuildChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var b Builder
	var got []byte
	for trial := 0; trial < 400; trial++ {
		events := randomTaggedEvents(rng, 1+rng.Intn(80))
		for _, senders := range []bool{false, true} {
			var want *Chunk
			if senders {
				want = BuildChunkWithSenders(uint64(trial), events)
			} else {
				want = BuildChunk(uint64(trial), events)
			}
			// Boundary exceptions are appended by the encoder, not the
			// builder; give both sides the same set.
			if trial%3 == 0 {
				want.Exceptions = []tables.MatchedEntry{{Rank: 1, Clock: uint64(trial)}}
			}
			c := b.Build(uint64(trial), events, senders)
			c.Exceptions = want.Exceptions

			got = b.AppendMarshal(got[:0], c)
			if wantBytes := want.Marshal(nil); !bytes.Equal(got, wantBytes) {
				t.Fatalf("trial %d senders=%v: marshal mismatch\nbuilder: %x\nlegacy:  %x",
					trial, senders, got, wantBytes)
			}
		}
	}
}

// TestBuilderOverflowRanks drives the map fallback for ranks outside the
// dense epoch-line range and checks it against the legacy path.
func TestBuilderOverflowRanks(t *testing.T) {
	events := []tables.Event{
		tables.Matched(maxDenseRank+7, 5, false),
		tables.Matched(2, 3, false),
		tables.Unmatched(2),
		tables.Matched(maxDenseRank+7, 9, false),
		tables.Matched(-3, 4, false),
	}
	var b Builder
	c := b.Build(1, events, true)
	got := b.AppendMarshal(nil, c)
	want := BuildChunkWithSenders(1, events).Marshal(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("overflow-rank marshal mismatch\nbuilder: %x\nlegacy:  %x", got, want)
	}
}

// TestBuilderAllocs pins the steady-state allocation count of a warm
// Builder at zero: the whole point of the scratch design is that the encode
// workers stop churning the GC once their buffers have grown to chunk size.
func TestBuilderAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	events := randomTaggedEvents(rng, 4096)
	var b Builder
	var buf []byte
	run := func() {
		c := b.Build(7, events, true)
		buf = b.AppendMarshal(buf[:0], c)
	}
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm Builder Build+AppendMarshal allocates %v times per chunk, want 0", allocs)
	}
}

// nearSortedTaggedEvents is an observed stream close to reference order,
// like workload.Stream's: globally advancing clocks over six senders,
// shuffled within a window of 5 with each sender's clocks kept ascending,
// plus tags, with_next groups and unmatched runs.
func nearSortedTaggedEvents(rng *rand.Rand, n int) []tables.Event {
	const senders, window = 6, 5
	ranks := make([]int32, n)
	clocks := make([]uint64, n)
	var global uint64
	for i := range ranks {
		ranks[i] = int32(rng.Intn(senders))
		global += uint64(1 + rng.Intn(3))
		clocks[i] = global
	}
	for i := 0; i+1 < n; i++ {
		j := min(i+rng.Intn(window+1), n-1)
		ranks[i], ranks[j] = ranks[j], ranks[i]
		clocks[i], clocks[j] = clocks[j], clocks[i]
	}
	// Reassign each sender's clocks ascending over its positions.
	var perRank [senders][]uint64
	for i, r := range ranks {
		perRank[r] = append(perRank[r], clocks[i])
	}
	for _, cs := range perRank {
		slices.Sort(cs)
	}
	var next [senders]int
	events := make([]tables.Event, 0, n+n/4)
	for i, r := range ranks {
		if rng.Intn(5) == 0 {
			events = append(events, tables.Unmatched(uint64(1+rng.Intn(6))))
		}
		clk := perRank[r][next[r]]
		next[r]++
		events = append(events, tables.MatchedTagged(r, int32(rng.Intn(3)), clk, i+1 < n && rng.Intn(7) == 0))
	}
	return events
}

// refKeysOf returns the reference sort keys of events' matched rows, in
// observed order, as Build makes them.
func refKeysOf(events []tables.Event) []refKey {
	var keys []refKey
	for _, ev := range events {
		if ev.Flag {
			keys = append(keys, refKey{clock: ev.Clock, rank: ev.Rank, idx: int32(len(keys))})
		}
	}
	return keys
}

// TestSortRefKeysMatchesSortFunc checks the budgeted insertion sort against
// slices.SortFunc on the inputs it meets: random per-sender clocks (the
// budget runs out), near-sorted streams (it does not), reversed keys (it
// runs out early), and heavy clock and (clock, rank) ties, which only the
// observed index separates.
func TestSortRefKeysMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	reversed := func(n int) []refKey {
		keys := make([]refKey, n)
		for i := range keys {
			keys[i] = refKey{clock: uint64(n - i), rank: int32(i % 3), idx: int32(i)}
		}
		return keys
	}
	ties := func(n int) []refKey {
		keys := make([]refKey, n)
		for i := range keys {
			keys[i] = refKey{clock: uint64(rng.Intn(4)), rank: int32(rng.Intn(2)), idx: int32(i)}
		}
		return keys
	}
	cases := map[string]func(n int) []refKey{
		"random":      func(n int) []refKey { return refKeysOf(randomTaggedEvents(rng, n)) },
		"near-sorted": func(n int) []refKey { return refKeysOf(nearSortedTaggedEvents(rng, n)) },
		"reversed":    reversed,
		"ties":        ties,
	}
	for _, name := range []string{"random", "near-sorted", "reversed", "ties"} {
		for trial := 0; trial < 200; trial++ {
			keys := cases[name](rng.Intn(600))
			want := slices.Clone(keys)
			slices.SortFunc(want, compareRefKeys)
			got := slices.Clone(keys)
			sortRefKeys(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d (%d keys): sortRefKeys differs from slices.SortFunc", name, trial, len(keys))
			}
		}
	}
}

// TestSortRefKeysBudgetRunsOutMidSort feeds a sorted first half and a
// reversed second half. The insertion sort walks the sorted half for free,
// spends its budget a little way into the reversed half, and leaves
// slices.SortFunc a slice whose prefix is sorted and whose tail is not.
func TestSortRefKeysBudgetRunsOutMidSort(t *testing.T) {
	const n = 1000
	keys := make([]refKey, n)
	for i := range keys {
		clock := uint64(i)
		if i >= n/2 {
			clock = uint64(3*n/2 - i) // n down to n/2+1
		}
		keys[i] = refKey{clock: clock, rank: int32(i % 3), idx: int32(i)}
	}
	// Insertion sort shifts once per inversion; the reversed half alone has
	// (n/2)(n/2−1)/2 of them, far past the budget.
	if inv := (n / 2) * (n/2 - 1) / 2; inv <= sortShiftBudget*n {
		t.Fatalf("input has %d inversions, within the budget of %d: the fallback is not exercised", inv, sortShiftBudget*n)
	}
	want := slices.Clone(keys)
	slices.SortFunc(want, compareRefKeys)
	sortRefKeys(keys)
	if !slices.Equal(keys, want) {
		t.Fatal("sortRefKeys differs from slices.SortFunc after the budget ran out")
	}
}

func BenchmarkBuilderBuildMarshal(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func(*rand.Rand, int) []tables.Event
	}{
		{"near-sorted", nearSortedTaggedEvents},
		// Independent per-sender clocks are the sort budget's worst case.
		{"random", randomTaggedEvents},
	} {
		b.Run(bc.name, func(b *testing.B) {
			events := bc.gen(rand.New(rand.NewSource(2)), 4096)
			var bld Builder
			var buf []byte
			b.SetBytes(int64(len(events)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := bld.Build(0, events, true)
				buf = bld.AppendMarshal(buf[:0], c)
			}
		})
	}
}
