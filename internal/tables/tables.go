// Package tables defines the order-replay event model (paper §3.1, Fig. 4)
// and the redundancy elimination step (§3.2, Fig. 6).
//
// Every matching-function (MF) call outcome is an Event row holding the
// quintuple the paper shows is necessary and sufficient for order-replay:
// count, flag, with_next, rank and clock. Redundancy elimination splits a
// run of events into three tables — the matched-test table, the with_next
// table and the unmatched-test table — dropping every field that is
// implied by table membership.
package tables

// Event is one row of the original record table (paper Fig. 4).
type Event struct {
	// Count is the number of consecutive occurrences this row stands for.
	// Matched rows always have Count 1; unmatched-test rows aggregate
	// consecutive failed tests.
	Count uint64
	// Flag is the matching status: true if the MF call matched a message.
	Flag bool
	// WithNext marks a message received together with the next row's
	// message in a single MF call (Waitall/Waitsome/Testall/Testsome).
	WithNext bool
	// Rank is the source rank of the matched message (Flag true only).
	Rank int32
	// Clock is the piggybacked Lamport clock of the matched message
	// (Flag true only). Together with Rank it uniquely identifies the
	// message (paper §3.1).
	Clock uint64
	// Tag is the matched message's tag. It is NOT part of the paper's
	// quintuple (and never counted in the stored-value accounting); the
	// robust record format carries it so the replayer can identify
	// messages per (sender, tag) subsequence, which stays gap-free even
	// when one MF callsite serves several tags.
	Tag int32
}

// BitsPerRow is the paper's accounting for one uncompressed Fig. 4 row, the
// quintuple bit-packed: count 64, flag 1, with_next 1, rank 32, clock 64.
// Tag is not counted.
const BitsPerRow = 64 + 1 + 1 + 32 + 64

// Matched constructs a matched-event row.
func Matched(rank int32, clock uint64, withNext bool) Event {
	return Event{Count: 1, Flag: true, WithNext: withNext, Rank: rank, Clock: clock}
}

// MatchedTagged is Matched with the message tag attached (recorder use).
func MatchedTagged(rank int32, tag int32, clock uint64, withNext bool) Event {
	ev := Matched(rank, clock, withNext)
	ev.Tag = tag
	return ev
}

// Unmatched constructs an unmatched-test row of the given recurrence count.
func Unmatched(count uint64) Event {
	return Event{Count: count}
}

// ValueCount returns the paper's accounting of stored values for a slice of
// rows in the original format: five values per row (Fig. 4's "55 values"
// for 11 rows).
func ValueCount(events []Event) int { return 5 * len(events) }

// MatchedEntry is one row of the matched-test table: the message identifier
// in observed order. The row's position in the table is its index.
type MatchedEntry struct {
	Rank  int32
	Clock uint64
	// Tag is carried for the robust format's tag column; it plays no part
	// in the Definition 6 ordering or in message identity.
	Tag int32
}

// UnmatchedRun is one row of the unmatched-test table: Count failed tests
// occurred immediately before the matched event at Index (0-based; Index
// equals the matched-event count when the run trails the final match).
type UnmatchedRun struct {
	Index int64
	Count uint64
}

// Reduced is the output of redundancy elimination (paper Fig. 6).
type Reduced struct {
	// Matched lists message identifiers in application-observed order.
	Matched []MatchedEntry
	// WithNext lists 0-based indices of matched events received together
	// with their successor.
	WithNext []int64
	// Unmatched lists runs of failed tests keyed by the index of the
	// following matched event.
	Unmatched []UnmatchedRun
}

// ValueCount returns the paper's accounting of stored values after
// redundancy elimination (Fig. 6's "23 values" for the worked example):
// two per matched entry, one per with_next index, two per unmatched run.
func (r *Reduced) ValueCount() int {
	return 2*len(r.Matched) + len(r.WithNext) + 2*len(r.Unmatched)
}

// Eliminate performs redundancy elimination on an event run.
func Eliminate(events []Event) Reduced {
	var red Reduced
	var pendingUnmatched uint64
	for _, ev := range events {
		if !ev.Flag {
			pendingUnmatched += ev.Count
			continue
		}
		idx := int64(len(red.Matched))
		if pendingUnmatched > 0 {
			red.Unmatched = append(red.Unmatched, UnmatchedRun{Index: idx, Count: pendingUnmatched})
			pendingUnmatched = 0
		}
		if ev.WithNext {
			red.WithNext = append(red.WithNext, idx)
		}
		red.Matched = append(red.Matched, MatchedEntry{Rank: ev.Rank, Clock: ev.Clock, Tag: ev.Tag})
	}
	if pendingUnmatched > 0 {
		red.Unmatched = append(red.Unmatched, UnmatchedRun{
			Index: int64(len(red.Matched)), Count: pendingUnmatched,
		})
	}
	return red
}

// Restore inverts Eliminate, reconstructing the original event rows (with
// consecutive unmatched tests aggregated into one row, as Fig. 4 stores
// them).
func (r *Reduced) Restore() []Event {
	var events []Event
	ui := 0
	wi := 0
	for i, m := range r.Matched {
		for ui < len(r.Unmatched) && r.Unmatched[ui].Index == int64(i) {
			events = append(events, Unmatched(r.Unmatched[ui].Count))
			ui++
		}
		withNext := false
		if wi < len(r.WithNext) && r.WithNext[wi] == int64(i) {
			withNext = true
			wi++
		}
		events = append(events, MatchedTagged(m.Rank, m.Tag, m.Clock, withNext))
	}
	for ui < len(r.Unmatched) {
		events = append(events, Unmatched(r.Unmatched[ui].Count))
		ui++
	}
	return events
}

// Less is the totally ordered relation of Definition 6 used to build the
// reference logical-clock order: by clock, ties broken by sender rank.
func Less(a, b MatchedEntry) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	return a.Rank < b.Rank
}
