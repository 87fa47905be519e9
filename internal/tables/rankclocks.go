package tables

import "slices"

// denseRanks bounds the sender ranks RankClocks keeps in its dense slice;
// any other int32 rank (record rows may carry negative or huge ones) goes
// to the overflow map. simmpi worlds number ranks 0..size−1, so real
// records stay dense.
const denseRanks = 1 << 12

// RankClocks is a per-sender-rank clock table: the largest clock raised for
// each rank, zero for a rank never raised. It is the one table behind both
// per-rank clock jobs of chunk encoding — the encoder's per-callsite
// boundary frontier and the Builder's epoch line — and after warm-up its
// dense path allocates nothing. The zero value is an empty table; it is not
// safe for concurrent use.
type RankClocks struct {
	// dense[r] is rank r's clock for 0 ≤ r < len(dense); it grows to the
	// largest dense rank raised and never shrinks.
	dense    []uint64
	overflow map[int32]uint64
	keys     []int32 // Drain's scratch for sorting overflow ranks
}

// Get returns rank's clock, zero if it was never raised.
func (t *RankClocks) Get(rank int32) uint64 {
	if uint32(rank) < uint32(len(t.dense)) {
		return t.dense[rank]
	}
	return t.overflow[rank] // nil-map reads are zero; unraised dense ranks are absent here too
}

// Raise lifts rank's clock to clock if clock is larger. A zero clock never
// raises a rank, so it never enters the table.
func (t *RankClocks) Raise(rank int32, clock uint64) {
	if uint32(rank) < uint32(len(t.dense)) {
		if clock > t.dense[rank] {
			t.dense[rank] = clock
		}
	} else {
		t.raiseSlow(rank, clock)
	}
}

func (t *RankClocks) raiseSlow(rank int32, clock uint64) {
	if clock == 0 {
		return
	}
	if rank >= 0 && rank < denseRanks {
		t.dense = append(t.dense, make([]uint64, int(rank)+1-len(t.dense))...)
		t.dense[rank] = clock
		return
	}
	if t.overflow == nil {
		t.overflow = make(map[int32]uint64)
	}
	if clock > t.overflow[rank] {
		t.overflow[rank] = clock
	}
}

// Drain calls visit for every raised rank in ascending rank order and
// leaves the table empty, keeping its storage for reuse.
func (t *RankClocks) Drain(visit func(rank int32, clock uint64)) {
	var above []int32 // overflow ranks past the dense range
	if len(t.overflow) > 0 {
		t.keys = t.keys[:0]
		for r := range t.overflow { //cdc:allow(maporder) ranks are sorted immediately below
			t.keys = append(t.keys, r)
		}
		slices.Sort(t.keys)
		i := 0
		for ; i < len(t.keys) && t.keys[i] < 0; i++ {
			visit(t.keys[i], t.overflow[t.keys[i]])
		}
		above = t.keys[i:]
	}
	for r, clk := range t.dense {
		if clk > 0 {
			visit(int32(r), clk)
			t.dense[r] = 0
		}
	}
	for _, r := range above {
		visit(r, t.overflow[r])
	}
	clear(t.overflow)
}
