package tables

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRankClocksMatchesMap drives RankClocks and a plain map through the
// same raises, over dense ranks, the dense range's edges and ranks outside
// it on both sides, and checks every Get and every Drain against the map:
// Drain must visit exactly the nonzero ranks, in ascending rank order.
func TestRankClocksMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges := []int32{math.MinInt32, -1 << 20, -3, -1, 0, 1, denseRanks - 1, denseRanks, denseRanks + 7, 1 << 30, math.MaxInt32}
	pick := func() int32 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int32(rng.Intn(40))
	}
	// domain is every rank pick can return, ascending.
	domain := slices.Clone(edges)
	for r := int32(0); r < 40; r++ {
		domain = append(domain, r)
	}
	slices.Sort(domain)
	domain = slices.Compact(domain)
	var tab RankClocks
	for round := 0; round < 200; round++ {
		ref := map[int32]uint64{}
		for i := rng.Intn(300); i > 0; i-- {
			r, clk := pick(), uint64(rng.Intn(50))
			if rng.Intn(9) == 0 {
				clk = 0
			}
			tab.Raise(r, clk)
			if clk > ref[r] {
				ref[r] = clk
			}
			q := pick()
			if got := tab.Get(q); got != ref[q] {
				t.Fatalf("round %d: Get(%d) = %d, want %d", round, q, got, ref[q])
			}
		}
		var want [][2]int64
		for _, r := range domain {
			if clk := ref[r]; clk > 0 {
				want = append(want, [2]int64{int64(r), int64(clk)})
			}
		}
		var got [][2]int64
		tab.Drain(func(r int32, clk uint64) { got = append(got, [2]int64{int64(r), int64(clk)}) })
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Drain visited %v, want %v", round, got, want)
		}
		for _, r := range edges {
			if clk := tab.Get(r); clk != 0 {
				t.Fatalf("round %d: rank %d holds %d after Drain", round, r, clk)
			}
		}
	}
}

// TestRankClocksAllocs pins a warm table's dense path at zero allocations
// per raise-and-drain cycle: the Builder's epoch line runs it once a chunk.
func TestRankClocksAllocs(t *testing.T) {
	var tab RankClocks
	var sum uint64
	cycle := func() {
		for r := int32(0); r < 64; r++ {
			tab.Raise(r, uint64(r)+1)
		}
		tab.Drain(func(_ int32, clk uint64) { sum += clk })
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm RankClocks raise+drain allocates %v times, want 0", allocs)
	}
}
