package store_test

import (
	"math"
	"slices"
	"testing"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/store"
)

// TestConsistentCutRules pins the two bounds of the consistent-cut rule on
// hand-built segment summaries: a mark's own clock M covers the rank's
// events below M only, and a segment in which a rank left a collective
// with clock K is kept only while every rank's frontier reaches K-1.
func TestConsistentCutRules(t *testing.T) {
	ref := func(rank int32, clock uint64) []cdcformat.EpochEntry {
		return []cdcformat.EpochEntry{{Rank: rank, Clock: clock}}
	}
	for _, tc := range []struct {
		name      string
		segs      [][]store.SegmentSummary
		intact    []bool
		keep      []int
		frontiers []uint64
	}{
		{
			// Rank 0 may send at clock 10 after failed tests past its cut.
			name:      "ref at the sender's mark clock",
			segs:      [][]store.SegmentSummary{{{Clock: 10}}, {{Clock: 3, Refs: ref(0, 10)}}},
			keep:      []int{1, 0},
			frontiers: []uint64{9, 0},
		},
		{
			name:      "ref below the sender's mark clock",
			segs:      [][]store.SegmentSummary{{{Clock: 10}}, {{Clock: 12, Refs: ref(0, 9)}}},
			keep:      []int{1, 1},
			frontiers: []uint64{9, 11},
		},
		{
			// Rank 0 left a collective at clock 31, so every rank entered it
			// at a clock ≤ 30; rank 1's cut ends at clock 20, before its entry.
			name:      "collective past another rank's cut",
			segs:      [][]store.SegmentSummary{{{Clock: 5}, {Clock: 40, Coll: 31}}, {{Clock: 20}}},
			keep:      []int{1, 1},
			frontiers: []uint64{4, 19},
		},
		{
			name:      "collective every rank's cut reaches",
			segs:      [][]store.SegmentSummary{{{Clock: 5}, {Clock: 40, Coll: 31}}, {{Clock: 32, Coll: 31}}},
			keep:      []int{2, 1},
			frontiers: []uint64{39, 31},
		},
		{
			// The trim cascades: dropping rank 0's collective segment drops
			// the clock rank 1's receive needed.
			name: "collective trim cascades through a ref",
			segs: [][]store.SegmentSummary{
				{{Clock: 5}, {Clock: 40, Coll: 31}},
				{{Clock: 50, Refs: ref(0, 35)}},
				{{Clock: 12}},
			},
			keep:      []int{1, 0, 1},
			frontiers: []uint64{4, 0, 11},
		},
		{
			name:      "intact rank reaches every collective",
			segs:      [][]store.SegmentSummary{{{Clock: 5}, {Clock: 40, Coll: 31}}, {{Clock: 2}}},
			intact:    []bool{false, true},
			keep:      []int{2, 1},
			frontiers: []uint64{39, math.MaxUint64},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			intact := tc.intact
			if intact == nil {
				intact = make([]bool, len(tc.segs))
			}
			keep, frontiers := store.ConsistentCut(tc.segs, make([]uint64, len(tc.segs)), intact)
			if !slices.Equal(keep, tc.keep) || !slices.Equal(frontiers, tc.frontiers) {
				t.Fatalf("keep %v frontiers %v, want keep %v frontiers %v", keep, frontiers, tc.keep, tc.frontiers)
			}
		})
	}
}
