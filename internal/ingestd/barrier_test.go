package ingestd

import (
	"testing"

	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
)

// TestAckBarrierWithinSalvageCut drives the ack barrier directly on a
// 3-rank run where an EARLIER segment breaks the cut while the tail
// segment does not: rank 0's first segment references rank 1 at clock
// 100, its second only rank 2, and rank 1 has sealed only to clock 50.
// Salvage trims rank 0 at its first segment, so the barrier must ack none
// of rank 0's events: every acked offset has to survive a crash and the
// restart's SalvageAll.
func TestAckBarrierWithinSalvageCut(t *testing.T) {
	root := t.TempDir()
	srv, err := New(Config{Root: root, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r, rej := srv.openRun(newTenantState("acme", Quota{}, nil), ingestwire.Hello{Tenant: "acme", Run: "cut", Ranks: 3})
	if rej != nil {
		t.Fatal(rej.Msg)
	}

	r.mu.Lock()
	rs := make([]*rankState, r.ranks)
	for rank := range rs {
		if rs[rank], err = srv.openRank(r, rank); err != nil {
			t.Fatal(err)
		}
	}
	// sealRow observes one row and seals it as its own segment.
	sealRow := func(rank int, clock uint64, ev tables.Event) {
		t.Helper()
		row := ingestwire.Row{Callsite: 1, Clock: clock, Ev: ev}
		if rs[rank].offset == 0 {
			row.Name = "recv@cut.c:1"
		}
		if err := r.observe(rs[rank], row); err != nil {
			t.Fatal(err)
		}
		if err := r.seal(rs[rank]); err != nil {
			t.Fatal(err)
		}
	}
	sealRow(2, 20, tables.Unmatched(1))
	sealRow(1, 50, tables.Matched(2, 10, false))
	sealRow(0, 101, tables.Matched(1, 100, false))
	sealRow(0, 102, tables.Matched(2, 5, false))
	r.advanceAcks()
	acked := make([]uint64, r.ranks)
	for rank := range acked {
		acked[rank] = rs[rank].acked
	}
	r.mu.Unlock()
	srv.Kill()

	sroot := dirstore.OpenRoot(root)
	if _, err := sroot.SalvageAll(); err != nil {
		t.Fatal(err)
	}
	st, err := sroot.Open("acme/cut")
	if err != nil {
		t.Fatal(err)
	}
	for rank, a := range acked {
		kept, _, err := store.RankFrontier(st, rank)
		if err != nil {
			t.Fatal(err)
		}
		if a > kept {
			t.Errorf("rank %d: acked %d events, but salvage kept %d", rank, a, kept)
		}
	}
	if acked[1] == 0 || acked[2] == 0 {
		t.Errorf("acked %v: ranks 1 and 2 form a consistent cut and should be acked", acked)
	}
}
