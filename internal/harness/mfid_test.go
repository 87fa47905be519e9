package harness

import (
	"io"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/tables"
)

// TestMFIDSeparatesMixedStreams constructs the situation §4.4 targets: two
// MF callsites whose streams are each perfectly clock-ordered, but whose
// interleaving is bursty, so a merged record looks heavily permuted while
// per-callsite records have no permutation at all.
func TestMFIDSeparatesMixedStreams(t *testing.T) {
	var rows []Row
	clockA, clockB := uint64(1), uint64(2)
	// Bursts: 8 events from callsite A, then 8 from B covering an
	// overlapping clock range, repeatedly.
	for burst := 0; burst < 200; burst++ {
		for i := 0; i < 8; i++ {
			clockA += 2
			rows = append(rows, Row{Callsite: 1, Ev: tables.Matched(0, clockA, false)})
		}
		for i := 0; i < 8; i++ {
			clockB += 2
			rows = append(rows, Row{Callsite: 2, Ev: tables.Matched(1, clockB, false)})
		}
	}

	size := func(merge bool) int64 {
		enc, err := core.NewEncoder(io.Discard, core.EncoderOptions{OmitSenderColumn: true})
		if err != nil {
			t.Fatal(err)
		}
		in := rows
		if merge {
			in = merged(rows)
		}
		n, err := feed(enc, in)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	merged := size(true)
	split := size(false)
	if split >= merged {
		t.Fatalf("MF identification did not help on bursty mixed streams: split %d >= merged %d", split, merged)
	}
	t.Logf("merged %d B, per-callsite %d B (%.1fx)", merged, split, float64(merged)/float64(split))
}
