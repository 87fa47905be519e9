package cdcformat

import (
	"cmp"
	"slices"

	"cdcreplay/internal/lpe"
	"cdcreplay/internal/permdiff"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// refKey is one matched event expressed for Definition 6 reference
// ranking: the Builder sorts these concrete keys once instead of calling
// sort.SliceStable through two closures (permdiff.Rank), which is the
// hottest part of chunk encoding.
type refKey struct {
	clock uint64
	rank  int32
	idx   int32
}

// Builder builds and marshals chunks through reusable scratch buffers: the
// redundancy-elimination tables, the reference-order sort keys, the
// permutation-encoding scratch (permdiff.Scratch), the epoch/tie
// accumulators, and the LPE column staging all live on the Builder and are
// recycled across chunks. After warm-up a Build + AppendMarshal pair
// allocates nothing (pinned by TestBuilderAllocs), which is what lets the
// encoder build every chunk — on its own Builder inline, or on one pooled
// Builder per worker — without churning the GC once per chunk.
//
// The produced chunk is equivalent to BuildChunk/BuildChunkWithSenders and
// AppendMarshal's bytes are identical to Chunk.Marshal's (pinned by the
// equivalence tests). A Builder is not safe for concurrent use, and the
// chunk returned by Build — including every table it references — is owned
// by the Builder and valid only until the next Build call.
type Builder struct {
	matched   []tables.MatchedEntry
	withNext  []int64
	unmatched []tables.UnmatchedRun
	keys      []refKey
	obs       []int
	pd        permdiff.Scratch
	epoch     []EpochEntry
	ties      []TiedClock
	senders   []int32
	tags      []int32
	chunk     Chunk

	// frontier accumulates the epoch line, empty between builds.
	frontier tables.RankClocks

	// colA/colB stage index columns and their LP residuals in AppendMarshal.
	colA, colB []int64
}

// Build encodes one flush interval of events at one callsite, exactly as
// BuildChunk (senders=false) or BuildChunkWithSenders (senders=true) would.
func (b *Builder) Build(callsite uint64, events []tables.Event, senders bool) *Chunk {
	// Redundancy elimination (tables.Eliminate, scratch-backed), building
	// the reference sort keys in the same pass.
	matched := b.matched[:0]
	withNext := b.withNext[:0]
	unmatched := b.unmatched[:0]
	keys := b.keys[:0]
	var pendingUnmatched uint64
	for _, ev := range events {
		if !ev.Flag {
			pendingUnmatched += ev.Count
			continue
		}
		idx := int64(len(matched))
		if pendingUnmatched > 0 {
			unmatched = append(unmatched, tables.UnmatchedRun{Index: idx, Count: pendingUnmatched})
			pendingUnmatched = 0
		}
		if ev.WithNext {
			withNext = append(withNext, idx)
		}
		matched = append(matched, tables.MatchedEntry{Rank: ev.Rank, Clock: ev.Clock, Tag: ev.Tag})
		keys = append(keys, refKey{clock: ev.Clock, rank: ev.Rank, idx: int32(idx)})
	}
	if pendingUnmatched > 0 {
		unmatched = append(unmatched, tables.UnmatchedRun{Index: int64(len(matched)), Count: pendingUnmatched})
	}
	b.matched, b.withNext, b.unmatched = matched, withNext, unmatched

	// Reference ranking: sort by (clock, rank) — tables.Less — with the
	// observed index as the final tie-break, replicating the stable sort.
	sortRefKeys(keys)
	b.keys = keys
	if cap(b.obs) < len(keys) {
		b.obs = make([]int, len(keys))
	}
	obs := b.obs[:len(keys)]
	for r, k := range keys {
		obs[k.idx] = r
	}

	// Epoch line: per-sender maximum piggybacked clock, sorted by rank.
	// A zero clock never raises a frontier (matching the map-based path).
	for _, m := range matched {
		b.frontier.Raise(m.Rank, m.Clock)
	}
	epoch := b.epoch[:0]
	b.frontier.Drain(func(rank int32, clock uint64) {
		epoch = append(epoch, EpochEntry{Rank: rank, Clock: clock})
	})
	b.epoch = epoch

	// Tied clocks: equal clocks are adjacent in the sorted keys, so the
	// collision scan is a linear pass yielding ties already clock-sorted.
	ties := b.ties[:0]
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].clock == keys[i].clock {
			j++
		}
		if j-i > 1 {
			ties = append(ties, TiedClock{Clock: keys[i].clock, Count: uint64(j - i)})
		}
		i = j
	}
	b.ties = ties

	c := &b.chunk
	*c = Chunk{
		Callsite:   callsite,
		NumMatched: uint64(len(matched)),
		Moves:      b.pd.Encode(obs),
		WithNext:   withNext,
		Unmatched:  unmatched,
		EpochLine:  epoch,
		TiedClocks: ties,
	}
	if senders && len(matched) > 0 {
		if cap(b.senders) < len(matched) {
			b.senders = make([]int32, len(matched))
			b.tags = make([]int32, len(matched))
		}
		sn, tg := b.senders[:len(matched)], b.tags[:len(matched)]
		for i, m := range matched {
			sn[obs[i]] = m.Rank
			tg[obs[i]] = m.Tag
		}
		c.Senders, c.Tags = sn, tg
	}
	return c
}

// sortShiftBudget is the insertion-sort work sortRefKeys allows per key, in
// element shifts, before it hands the rest of the sort to pdqsort.
const sortShiftBudget = 8

// sortRefKeys sorts keys into reference order. Keys arrive in observed
// order, which the paper's premise (§4.1) puts close to reference order:
// most keys are in place and the rest sit a few slots late, so an insertion
// sort finishes in near-linear time. Its shifts are capped at
// sortShiftBudget per key; once they are spent, slices.SortFunc sorts the
// partly sorted keys, so a far-from-sorted chunk costs at most about
// (sortShiftBudget+1)·n moves more than pdqsort alone. Keys are unique (the
// observed index breaks every tie), so both sorts give the same order.
func sortRefKeys(keys []refKey) {
	budget := sortShiftBudget * len(keys)
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		// Keys enter in ascending observed index and the insertion is
		// stable, so (clock, rank) alone decides where k goes.
		for j > 0 && (k.clock < keys[j-1].clock || k.clock == keys[j-1].clock && k.rank < keys[j-1].rank) {
			keys[j] = keys[j-1]
			j--
		}
		keys[j] = k
		if budget -= i - j; budget < 0 {
			slices.SortFunc(keys, compareRefKeys)
			return
		}
	}
}

func compareRefKeys(x, y refKey) int {
	if c := cmp.Compare(x.clock, y.clock); c != 0 {
		return c
	}
	if c := cmp.Compare(x.rank, y.rank); c != 0 {
		return c
	}
	return cmp.Compare(x.idx, y.idx)
}

// AppendMarshal appends the chunk's serialization to dst, producing bytes
// identical to Chunk.Marshal but staging the LPE index columns in the
// Builder's scratch instead of allocating them per call.
func (b *Builder) AppendMarshal(dst []byte, c *Chunk) []byte {
	dst = varint.AppendUint(dst, c.Callsite)
	dst = varint.AppendUint(dst, c.NumMatched)

	dst = varint.AppendUint(dst, uint64(len(c.Moves)))
	colA := b.colA[:0]
	for _, m := range c.Moves {
		colA = append(colA, m.ObservedIndex)
	}
	colB := lpe.AppendEncode(b.colB[:0], colA)
	for _, e := range colB {
		dst = varint.AppendInt(dst, e)
	}
	for _, m := range c.Moves {
		dst = varint.AppendInt(dst, m.Delay)
	}

	dst = varint.AppendUint(dst, uint64(len(c.WithNext)))
	colB = lpe.AppendEncode(colB[:0], c.WithNext)
	for _, e := range colB {
		dst = varint.AppendInt(dst, e)
	}

	dst = varint.AppendUint(dst, uint64(len(c.Unmatched)))
	colA = colA[:0]
	for _, u := range c.Unmatched {
		colA = append(colA, u.Index)
	}
	colB = lpe.AppendEncode(colB[:0], colA)
	for _, e := range colB {
		dst = varint.AppendInt(dst, e)
	}
	for _, u := range c.Unmatched {
		dst = varint.AppendUint(dst, u.Count)
	}

	dst = varint.AppendUint(dst, uint64(len(c.EpochLine)))
	colA = colA[:0]
	for _, e := range c.EpochLine {
		colA = append(colA, int64(e.Rank))
	}
	colB = lpe.AppendEncode(colB[:0], colA)
	for _, e := range colB {
		dst = varint.AppendInt(dst, e)
	}
	for _, e := range c.EpochLine {
		dst = varint.AppendUint(dst, e.Clock)
	}

	dst = varint.AppendUint(dst, uint64(len(c.TiedClocks)))
	prev := uint64(0)
	for _, t := range c.TiedClocks {
		dst = varint.AppendUint(dst, t.Clock-prev) // sorted ascending: delta encode
		dst = varint.AppendUint(dst, t.Count)
		prev = t.Clock
	}

	dst = varint.AppendUint(dst, uint64(len(c.Senders)))
	for _, r := range c.Senders {
		dst = varint.AppendUint(dst, uint64(uint32(r)))
	}
	dst = varint.AppendUint(dst, uint64(len(c.Tags)))
	for _, t := range c.Tags {
		dst = varint.AppendUint(dst, uint64(uint32(t)))
	}

	dst = varint.AppendUint(dst, uint64(len(c.Exceptions)))
	for _, e := range c.Exceptions {
		dst = varint.AppendUint(dst, uint64(uint32(e.Rank)))
		dst = varint.AppendUint(dst, e.Clock)
	}
	b.colA, b.colB = colA, colB
	return dst
}
