// Package cdcformat defines the CDC on-disk chunk format (paper Fig. 8 plus
// §3.5 epoch enforcement).
//
// A chunk is the unit CDC flushes from memory to storage. It holds, for one
// matching-function callsite and one flush interval:
//
//   - the permutation-difference table (observed index, delay),
//   - the with_next table,
//   - the unmatched-test table (index, count),
//   - the epoch line: per-sender maximum piggybacked clock among the
//     chunk's matched messages.
//
// Message identifiers (rank, clock) of matched messages are NOT stored —
// that is the point of CDC. At replay the reference order is rebuilt from
// the piggybacked clocks of the live messages, and the epoch line decides
// which chunk each live message belongs to: since per-sender clocks
// strictly increase, the chunk's messages from sender s are exactly the
// receives with clock in (previous frontier(s), frontier(s)].
//
// All index columns are linear-predictive encoded (§3.4) before zigzag
// varint serialization, and the surrounding stream is gzip-compressed by
// the storage writer, completing the paper's pipeline.
package cdcformat

import (
	"fmt"
	"sort"

	"cdcreplay/internal/lpe"
	"cdcreplay/internal/permdiff"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// MaxChunkEvents bounds the matched-event count a decoder will accept in
// one chunk, protecting against allocation bombs from corrupt record files.
const MaxChunkEvents = 1 << 24

// EpochEntry is one epoch-line row: the largest clock received from Rank
// within the chunk.
type EpochEntry struct {
	Rank  int32
	Clock uint64
}

// Chunk is the decoded in-memory form of one CDC record chunk.
type Chunk struct {
	// Callsite identifies the matching-function call instance (§4.4);
	// zero when MF identification is disabled.
	Callsite uint64
	// NumMatched is the number of matched receive events in the chunk.
	NumMatched uint64
	// Moves is the permutation-difference table (§3.3).
	Moves []permdiff.Move
	// WithNext lists 0-based matched-event indices received together with
	// their successor.
	WithNext []int64
	// Unmatched lists runs of failed tests keyed by following-match index.
	Unmatched []tables.UnmatchedRun
	// EpochLine holds per-sender clock frontiers, sorted by rank.
	EpochLine []EpochEntry
	// TiedClocks lists, sorted ascending by clock, the clock values
	// carried by more than one of the chunk's messages (necessarily from
	// different senders), with their multiplicities. This is a liveness
	// extension over the paper's format: its Axiom 1 release rule
	// compares a candidate's clock against the minimum clock of the
	// *next receive*, which a receiver cannot bound tightly enough
	// without knowing whether a colliding clock can still arrive. The
	// list is almost always empty, costing one varint per chunk; when a
	// tie does occur the multiplicity lets the replayer hold the tied
	// messages until all of them have arrived and their rank-order is
	// exact.
	TiedClocks []TiedClock
	// Senders, when present (length NumMatched), lists the sender rank of
	// each chunk message in *reference* order. It is an optional
	// robustness extension: with it, the replayer can release the message
	// for reference rank R as simply "the next FIFO message from
	// Senders[R]" with no clock reasoning at all, which makes replay
	// exact and deadlock-free even for tightly-coupled blocking exchanges
	// that the paper's Axiom 1 release rule cannot drive (its LMC bound
	// is not computable from receiver-local knowledge in those patterns).
	// The column costs a fraction of a byte per event after gzip and is
	// omitted by the paper-faithful encoder configuration used for the
	// compression-size experiments.
	Senders []int32
	// Tags accompanies Senders (reference order): the robust replayer
	// identifies the message for reference rank R as the j-th arrival of
	// the (Senders[R], Tags[R]) subsequence, where j counts lower ranks
	// with the same pair. Identification per (sender, tag) stays exact
	// even when an MF callsite serves several tags, because a stream
	// filters pooled messages by learned specs whole-tag at a time.
	Tags []int32
	// Exceptions lists chunk messages whose clock does not exceed an
	// earlier chunk's epoch frontier for their sender. This happens when
	// the application completes same-sender messages out of order (the
	// paper's Fig. 3) *across* a flush boundary: window-based chunk
	// membership would misassign such a message to the earlier chunk, so
	// it is pinned here explicitly. Empty in all but pathological
	// streams.
	Exceptions []tables.MatchedEntry
}

// TiedClock records a within-chunk clock collision.
type TiedClock struct {
	Clock uint64
	// Count is the number of chunk messages carrying Clock (≥ 2).
	Count uint64
}

// ValueCount returns the paper's stored-value accounting for the chunk
// (Fig. 8's "19 values" for the worked example): two per permutation move,
// one per with_next index, two per unmatched run, two per epoch entry.
// The TiedClocks liveness extension is excluded to keep the accounting
// comparable with the paper's figures; its size is reported by the byte
// counts, where it belongs.
func (c *Chunk) ValueCount() int {
	return 2*len(c.Moves) + len(c.WithNext) + 2*len(c.Unmatched) + 2*len(c.EpochLine)
}

// Marshal appends the serialized chunk to dst. It is the straightforward
// reference serializer: the encoder writes chunks through
// Builder.AppendMarshal, whose bytes the Builder tests pin to Marshal's.
func (c *Chunk) Marshal(dst []byte) []byte {
	w := varint.Writer{}
	w.Uint(c.Callsite)
	w.Uint(c.NumMatched)

	w.Uint(uint64(len(c.Moves)))
	idx := make([]int64, len(c.Moves))
	for i, m := range c.Moves {
		idx[i] = m.ObservedIndex
	}
	for _, e := range lpe.Encode(nil, idx) {
		w.Int(e)
	}
	for _, m := range c.Moves {
		w.Int(m.Delay)
	}

	w.Uint(uint64(len(c.WithNext)))
	for _, e := range lpe.Encode(nil, c.WithNext) {
		w.Int(e)
	}

	w.Uint(uint64(len(c.Unmatched)))
	idx = make([]int64, len(c.Unmatched))
	for i, u := range c.Unmatched {
		idx[i] = u.Index
	}
	for _, e := range lpe.Encode(nil, idx) {
		w.Int(e)
	}
	for _, u := range c.Unmatched {
		w.Uint(u.Count)
	}

	w.Uint(uint64(len(c.EpochLine)))
	ranks := make([]int64, len(c.EpochLine))
	for i, e := range c.EpochLine {
		ranks[i] = int64(e.Rank)
	}
	for _, e := range lpe.Encode(nil, ranks) {
		w.Int(e)
	}
	for _, e := range c.EpochLine {
		w.Uint(e.Clock)
	}

	w.Uint(uint64(len(c.TiedClocks)))
	prev := uint64(0)
	for _, t := range c.TiedClocks {
		w.Uint(t.Clock - prev) // sorted ascending: delta encode
		w.Uint(t.Count)
		prev = t.Clock
	}

	w.Uint(uint64(len(c.Senders)))
	for _, r := range c.Senders {
		w.Uint(uint64(uint32(r)))
	}
	w.Uint(uint64(len(c.Tags)))
	for _, t := range c.Tags {
		w.Uint(uint64(uint32(t)))
	}

	w.Uint(uint64(len(c.Exceptions)))
	for _, e := range c.Exceptions {
		w.Uint(uint64(uint32(e.Rank)))
		w.Uint(e.Clock)
	}
	return append(dst, w.Result()...)
}

// Unmarshal decodes one chunk from r.
func Unmarshal(r *varint.Reader) (*Chunk, error) {
	c := &Chunk{}
	var err error
	if c.Callsite, err = r.Uint(); err != nil {
		return nil, fmt.Errorf("cdcformat: callsite: %w", err)
	}
	if c.NumMatched, err = r.Uint(); err != nil {
		return nil, fmt.Errorf("cdcformat: matched count: %w", err)
	}
	if c.NumMatched > MaxChunkEvents {
		return nil, fmt.Errorf("cdcformat: matched count %d exceeds limit %d", c.NumMatched, MaxChunkEvents)
	}

	nm, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: move count: %w", err)
	}
	if err := sane(nm, c.NumMatched); err != nil {
		return nil, fmt.Errorf("cdcformat: moves: %w", err)
	}
	movesIdx, err := readLPColumn(r, int(nm))
	if err != nil {
		return nil, fmt.Errorf("cdcformat: move indices: %w", err)
	}
	if nm > 0 {
		c.Moves = make([]permdiff.Move, nm)
	}
	for i := range c.Moves {
		d, err := r.Int()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: move delay: %w", err)
		}
		c.Moves[i] = permdiff.Move{ObservedIndex: movesIdx[i], Delay: d}
	}

	nw, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: with_next count: %w", err)
	}
	if err := sane(nw, c.NumMatched); err != nil {
		return nil, fmt.Errorf("cdcformat: with_next: %w", err)
	}
	if c.WithNext, err = readLPColumn(r, int(nw)); err != nil {
		return nil, fmt.Errorf("cdcformat: with_next indices: %w", err)
	}
	if nw == 0 {
		c.WithNext = nil
	}

	nu, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: unmatched count: %w", err)
	}
	if err := sane(nu, c.NumMatched+1); err != nil {
		return nil, fmt.Errorf("cdcformat: unmatched: %w", err)
	}
	uIdx, err := readLPColumn(r, int(nu))
	if err != nil {
		return nil, fmt.Errorf("cdcformat: unmatched indices: %w", err)
	}
	if nu > 0 {
		c.Unmatched = make([]tables.UnmatchedRun, nu)
	}
	for i := range c.Unmatched {
		cnt, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: unmatched run count: %w", err)
		}
		c.Unmatched[i] = tables.UnmatchedRun{Index: uIdx[i], Count: cnt}
	}

	ne, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: epoch count: %w", err)
	}
	if err := sane(ne, c.NumMatched); err != nil {
		return nil, fmt.Errorf("cdcformat: epoch line: %w", err)
	}
	eRanks, err := readLPColumn(r, int(ne))
	if err != nil {
		return nil, fmt.Errorf("cdcformat: epoch ranks: %w", err)
	}
	if ne > 0 {
		c.EpochLine = make([]EpochEntry, ne)
	}
	for i := range c.EpochLine {
		clk, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: epoch clock: %w", err)
		}
		c.EpochLine[i] = EpochEntry{Rank: int32(eRanks[i]), Clock: clk}
	}

	nt, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: tie count: %w", err)
	}
	if err := sane(nt, c.NumMatched); err != nil {
		return nil, fmt.Errorf("cdcformat: tied clocks: %w", err)
	}
	if nt > 0 {
		c.TiedClocks = make([]TiedClock, nt)
	}
	prev := uint64(0)
	for i := range c.TiedClocks {
		d, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: tied clock: %w", err)
		}
		cnt, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: tied clock count: %w", err)
		}
		if err := sane(cnt, c.NumMatched); err != nil {
			return nil, fmt.Errorf("cdcformat: tied clock count: %w", err)
		}
		prev += d
		c.TiedClocks[i] = TiedClock{Clock: prev, Count: cnt}
	}

	ns, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: sender column count: %w", err)
	}
	if ns != 0 && ns != c.NumMatched {
		return nil, fmt.Errorf("cdcformat: sender column has %d entries, want 0 or %d", ns, c.NumMatched)
	}
	if ns > 0 {
		c.Senders = make([]int32, ns)
	}
	for i := range c.Senders {
		v, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: sender column: %w", err)
		}
		c.Senders[i] = int32(uint32(v))
	}
	nt2, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: tag column count: %w", err)
	}
	if nt2 != 0 && nt2 != ns {
		return nil, fmt.Errorf("cdcformat: tag column has %d entries, want 0 or %d", nt2, ns)
	}
	if nt2 > 0 {
		c.Tags = make([]int32, nt2)
	}
	for i := range c.Tags {
		v, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: tag column: %w", err)
		}
		c.Tags[i] = int32(uint32(v))
	}

	nx, err := r.Uint()
	if err != nil {
		return nil, fmt.Errorf("cdcformat: exception count: %w", err)
	}
	if err := sane(nx, c.NumMatched); err != nil {
		return nil, fmt.Errorf("cdcformat: exceptions: %w", err)
	}
	if nx > 0 {
		c.Exceptions = make([]tables.MatchedEntry, nx)
	}
	for i := range c.Exceptions {
		rk, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: exception rank: %w", err)
		}
		clk, err := r.Uint()
		if err != nil {
			return nil, fmt.Errorf("cdcformat: exception clock: %w", err)
		}
		c.Exceptions[i] = tables.MatchedEntry{Rank: int32(uint32(rk)), Clock: clk}
	}
	return c, nil
}

// sane guards decode allocations against corrupt counts: no table can be
// longer than the matched-event count allows.
func sane(n, limit uint64) error {
	if n > limit {
		return fmt.Errorf("table length %d exceeds matched count %d", n, limit)
	}
	return nil
}

func readLPColumn(r *varint.Reader, n int) ([]int64, error) {
	es := make([]int64, n)
	for i := range es {
		v, err := r.Int()
		if err != nil {
			return nil, err
		}
		es[i] = v
	}
	return lpe.Decode(es, es), nil
}

// BuildChunk encodes one flush interval of events at one callsite into a
// chunk: redundancy elimination, reference-order ranking (Definition 6),
// permutation-difference encoding and epoch-line construction. The chunk
// carries no sender column (the paper-faithful format); see
// BuildChunkWithSenders.
//
// BuildChunk is the allocating, definition-by-definition reference build.
// The encoder builds every chunk with Builder instead; BuildChunk stays as
// the oracle TestBuilderMatchesBuildChunk compares Builder against, and
// as a convenience for tests.
func BuildChunk(callsite uint64, events []tables.Event) *Chunk {
	red := tables.Eliminate(events)
	return buildFromReduced(callsite, &red, false)
}

// BuildChunkWithSenders is BuildChunk plus the reference-order sender
// column robustness extension. Like BuildChunk it is a test reference; the
// encoder uses Builder.
func BuildChunkWithSenders(callsite uint64, events []tables.Event) *Chunk {
	red := tables.Eliminate(events)
	return buildFromReduced(callsite, &red, true)
}

func buildFromReduced(callsite uint64, red *tables.Reduced, senders bool) *Chunk {
	obs := permdiff.Rank(len(red.Matched), func(i, j int) bool {
		return tables.Less(red.Matched[i], red.Matched[j])
	})
	frontier := map[int32]uint64{}
	clockSeen := map[uint64]int{}
	for _, m := range red.Matched {
		if m.Clock > frontier[m.Rank] {
			frontier[m.Rank] = m.Clock
		}
		clockSeen[m.Clock]++
	}
	var epoch []EpochEntry
	for r, clk := range frontier { //cdc:allow(maporder) entries are sorted by rank immediately below
		epoch = append(epoch, EpochEntry{Rank: r, Clock: clk})
	}
	sort.Slice(epoch, func(i, j int) bool { return epoch[i].Rank < epoch[j].Rank })
	var ties []TiedClock
	for clk, n := range clockSeen { //cdc:allow(maporder) ties are sorted by clock immediately below
		if n > 1 {
			ties = append(ties, TiedClock{Clock: clk, Count: uint64(n)})
		}
	}
	sort.Slice(ties, func(i, j int) bool { return ties[i].Clock < ties[j].Clock })
	c := &Chunk{
		Callsite:   callsite,
		NumMatched: uint64(len(red.Matched)),
		Moves:      permdiff.Encode(obs),
		WithNext:   red.WithNext,
		Unmatched:  red.Unmatched,
		EpochLine:  epoch,
		TiedClocks: ties,
	}
	if senders && len(red.Matched) > 0 {
		c.Senders = make([]int32, len(red.Matched))
		c.Tags = make([]int32, len(red.Matched))
		for i, m := range red.Matched {
			// obs[i] is the reference rank of observed message i, so the
			// sender/tag columns at that rank describe this message.
			c.Senders[obs[i]] = m.Rank
			c.Tags[obs[i]] = m.Tag
		}
	}
	return c
}

// ReconstructEvents inverts BuildChunk given the chunk's matched message
// identifiers in ANY order (at replay they come from the live messages;
// in tests from the original events). It returns the full event stream in
// observed order.
func (c *Chunk) ReconstructEvents(msgs []tables.MatchedEntry) ([]tables.Event, error) {
	if uint64(len(msgs)) != c.NumMatched {
		return nil, fmt.Errorf("cdcformat: chunk has %d matched events, got %d messages", c.NumMatched, len(msgs))
	}
	ref := append([]tables.MatchedEntry(nil), msgs...)
	sort.Slice(ref, func(i, j int) bool { return tables.Less(ref[i], ref[j]) })
	obs, err := permdiff.Decode(len(ref), c.Moves)
	if err != nil {
		return nil, err
	}
	red := tables.Reduced{
		Matched:   make([]tables.MatchedEntry, len(ref)),
		WithNext:  c.WithNext,
		Unmatched: c.Unmatched,
	}
	for i, r := range obs {
		red.Matched[i] = ref[r]
	}
	return red.Restore(), nil
}

// StageSizes reports the serialized byte size of one chunk's event set at
// the three in-memory CDC pipeline stages, for the per-stage byte
// accounting the obs layer exposes (DESIGN.md §8):
//
//	re — redundancy elimination only (paper §3.2): the reduced tables with
//	     the matched (rank, clock) column stored explicitly, plain varints;
//	pe — permutation encoding (§3.3): the matched column replaced by the
//	     permutation-difference moves plus the epoch line, index columns
//	     still plain varints;
//	lp — linear predictive encoding (§3.4) applied to the index columns:
//	     exactly the bytes Marshal produces.
//
// The final gzip stage is accounted by the storage writer
// (core.FrameWriter.BytesWritten), where the cross-chunk stream lives.
func StageSizes(events []tables.Event, c *Chunk) (re, pe, lp int) {
	// Tables shared by every stage, always plain varints.
	shared := varint.UintSize(uint64(len(c.WithNext))) +
		varint.UintSize(uint64(len(c.Unmatched)))
	for _, u := range c.Unmatched {
		shared += varint.UintSize(u.Count)
	}

	// Stage 1 — RE: matched identifiers explicit, index columns plain.
	re = varint.UintSize(c.NumMatched) + shared
	for _, ev := range events {
		if ev.Flag {
			re += varint.UintSize(uint64(uint32(ev.Rank))) + varint.UintSize(ev.Clock)
		}
	}
	for _, i := range c.WithNext {
		re += varint.IntSize(i)
	}
	for _, u := range c.Unmatched {
		re += varint.IntSize(u.Index)
	}

	// Columns PE introduces and both later stages carry.
	peTail := varint.UintSize(uint64(len(c.EpochLine))) +
		varint.UintSize(uint64(len(c.TiedClocks))) +
		varint.UintSize(uint64(len(c.Senders))) +
		varint.UintSize(uint64(len(c.Tags))) +
		varint.UintSize(uint64(len(c.Exceptions)))
	for _, e := range c.EpochLine {
		peTail += varint.UintSize(e.Clock)
	}
	prev := uint64(0)
	for _, t := range c.TiedClocks {
		peTail += varint.UintSize(t.Clock-prev) + varint.UintSize(t.Count)
		prev = t.Clock
	}
	for _, s := range c.Senders {
		peTail += varint.UintSize(uint64(uint32(s)))
	}
	for _, t := range c.Tags {
		peTail += varint.UintSize(uint64(uint32(t)))
	}
	for _, e := range c.Exceptions {
		peTail += varint.UintSize(uint64(uint32(e.Rank))) + varint.UintSize(e.Clock)
	}

	head := varint.UintSize(c.Callsite) + varint.UintSize(c.NumMatched) +
		varint.UintSize(uint64(len(c.Moves)))
	delays := 0
	for _, m := range c.Moves {
		delays += varint.IntSize(m.Delay)
	}

	// The four index columns LPE transforms, as plain and as LP'd bytes.
	moveIdx := make([]int64, len(c.Moves))
	for i, m := range c.Moves {
		moveIdx[i] = m.ObservedIndex
	}
	unmatchedIdx := make([]int64, len(c.Unmatched))
	for i, u := range c.Unmatched {
		unmatchedIdx[i] = u.Index
	}
	epochRanks := make([]int64, len(c.EpochLine))
	for i, e := range c.EpochLine {
		epochRanks[i] = int64(e.Rank)
	}
	plainCols, lpCols := 0, 0
	for _, col := range [][]int64{moveIdx, c.WithNext, unmatchedIdx, epochRanks} {
		lpCols += lpe.EncodedSize(col)
		for _, v := range col {
			plainCols += varint.IntSize(v)
		}
	}

	pe = head + delays + shared + peTail + plainCols
	lp = head + delays + shared + peTail + lpCols
	return re, pe, lp
}
