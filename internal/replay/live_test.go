package replay

import (
	"errors"
	"fmt"
	"testing"

	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// TestLivePhaseContract pins what every MF call does past the end of a
// salvaged record (LiveAfterExhausted). The one recorded event is replayed
// first; then three (AnySource, 5) receives a, b and c are posted, and
// ranks 1, 2 and 3 send in that order, so message i binds the i-th posted
// receive and is harvested i-th. The calls then see:
//
//   - Test and Wait, over c, b and a in turn: one delivery each, in harvest
//     order (a slot that accepts a message takes it even when it is not the
//     message's own binding);
//   - Testany and Waitany, over {c,b,a}, {c,b} and {c}: one delivery each,
//     in harvest order, each through the message's own binding first;
//   - Testsome and Waitsome over {c,b,a}: all three in one call, in harvest
//     order, each through its own binding;
//   - Testall and Waitall over {c,b,a}: all or nothing, statuses in request
//     order, each slot taking its own binding first (a Testall with only
//     two of the three messages pooled delivers nothing).
//
// Every delivery ticks the lamport clock by one (the live messages carry
// clocks below the receiver's) and counts once in Stats.LiveReleases and
// replay.live.releases.
func TestLivePhaseContract(t *testing.T) {
	type step struct {
		slots   []int // indices into {c, b, a}
		idxs    []int // wanted completed slots; nil for Test, Wait and *all
		sources []int // wanted sources, in the order the call reports them
	}
	cba := []int{0, 1, 2}
	one := func(slots []int, idx, src int) step {
		return step{slots: slots, idxs: []int{idx}, sources: []int{src}}
	}
	single := func(slot, src int) step { return step{slots: []int{slot}, sources: []int{src}} }
	steps := map[string][]step{
		"Test":     {single(0, 1), single(1, 2), single(2, 3)},
		"Wait":     {single(0, 1), single(1, 2), single(2, 3)},
		"Testany":  {one(cba, 2, 1), one(cba[:2], 1, 2), one(cba[:1], 0, 3)},
		"Waitany":  {one(cba, 2, 1), one(cba[:2], 1, 2), one(cba[:1], 0, 3)},
		"Testsome": {{slots: cba, idxs: []int{2, 1, 0}, sources: []int{1, 2, 3}}},
		"Waitsome": {{slots: cba, idxs: []int{2, 1, 0}, sources: []int{1, 2, 3}}},
		"Testall":  {{slots: cba, sources: []int{3, 2, 1}}},
		"Waitall":  {{slots: cba, sources: []int{3, 2, 1}}},
	}
	for _, call := range []string{"Test", "Testany", "Testsome", "Testall", "Wait", "Waitany", "Waitsome", "Waitall"} {
		t.Run(call, func(t *testing.T) {
			reg := obs.NewRegistry()
			var g *ghostRig
			var released []simmpi.Status
			var clocks []uint64
			g = newGhostRig(t, Options{LiveAfterExhausted: true, Obs: reg, OnRelease: func(st simmpi.Status) {
				released = append(released, st)
				clocks = append(clocks, g.rp.Clock())
			}}, []tables.Event{tables.MatchedTagged(1, 5, 1, false)})

			g.send(t, 1, 5)
			if _, err := g.rp.Wait(g.irecv(t, 1, 5)); err != nil {
				t.Fatalf("replaying the recorded event: %v", err)
			}
			if live, _ := g.rp.Live(); live {
				t.Fatal("live before the record's end was reached")
			}
			a := g.irecv(t, simmpi.AnySource, 5)
			b := g.irecv(t, simmpi.AnySource, 5)
			c := g.irecv(t, simmpi.AnySource, 5)
			reqs := []*simmpi.Request{c, b, a}
			released, clocks = nil, nil
			before := g.rp.Clock()

			g.send(t, 1, 5)
			g.send(t, 2, 5)
			if call == "Testall" {
				g.harvestAll(t, 2)
				ok, sts, err := g.rp.Testall(reqs)
				if ok || err != nil || len(sts) != 0 || len(released) != 0 {
					t.Fatalf("Testall with two of three messages: ok=%v sts=%v err=%v, %d released; want nothing", ok, sts, err, len(released))
				}
			}
			g.send(t, 3, 5)

			for si, st := range steps[call] {
				g.harvestAll(t, 3-len(released))
				sub := make([]*simmpi.Request, len(st.slots))
				for i, s := range st.slots {
					sub[i] = reqs[s]
				}
				from := len(released)
				idxs, sts, err := invokeLive(g.rp, call, sub)
				if err != nil {
					t.Fatalf("step %d: %v", si, err)
				}
				if got, want := sources(sts), fmt.Sprint(st.sources); got != want {
					t.Fatalf("step %d: delivered sources %s, want %s", si, got, want)
				}
				if st.idxs != nil && fmt.Sprint(idxs) != fmt.Sprint(st.idxs) {
					t.Fatalf("step %d: completed slots %v, want %v", si, idxs, st.idxs)
				}
				if got := sources(released[from:]); got != fmt.Sprint(st.sources) {
					t.Fatalf("step %d: OnRelease saw sources %s, want %s", si, got, fmt.Sprint(st.sources))
				}
			}

			if len(released) != 3 {
				t.Fatalf("%d live deliveries, want 3", len(released))
			}
			for i, clk := range clocks {
				if want := before + uint64(i) + 1; clk != want {
					t.Fatalf("clock after live delivery %d = %d, want %d (one tick per delivery from %d)", i, clk, want, before)
				}
			}
			stats := g.rp.Stats()
			snap := reg.Snapshot()
			if stats.Released != 1 || snap.Counter("replay.releases") != 1 {
				t.Fatalf("replayed releases: Stats %d, replay.releases %d; want 1", stats.Released, snap.Counter("replay.releases"))
			}
			if stats.LiveReleases != 3 || snap.Counter("replay.live.releases") != stats.LiveReleases {
				t.Fatalf("live releases: Stats %d, replay.live.releases %d; want 3 and equal",
					stats.LiveReleases, snap.Counter("replay.live.releases"))
			}
			if live, _ := g.rp.Live(); !live {
				t.Fatal("Live() does not report the handback")
			}
			if err := g.rp.Verify(); errors.Is(err, ErrExhausted) {
				t.Fatalf("Verify after the handback: %v", err)
			}
		})
	}
}

// invokeLive makes one call of the named MF method over reqs and returns
// what it completed: slot indices (nil when the call reports none) and
// statuses.
func invokeLive(rp *Replayer, call string, reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	switch call {
	case "Test":
		ok, st, err := rp.Test(reqs[0])
		if !ok || err != nil {
			return nil, nil, fmt.Errorf("Test: ok=%v err=%v", ok, err)
		}
		return nil, []simmpi.Status{st}, nil
	case "Testany":
		i, ok, st, err := rp.Testany(reqs)
		if !ok || err != nil {
			return nil, nil, fmt.Errorf("Testany: ok=%v err=%v", ok, err)
		}
		return []int{i}, []simmpi.Status{st}, nil
	case "Testsome":
		return rp.Testsome(reqs)
	case "Testall":
		ok, sts, err := rp.Testall(reqs)
		if !ok || err != nil {
			return nil, nil, fmt.Errorf("Testall: ok=%v err=%v", ok, err)
		}
		return nil, sts, nil
	case "Wait":
		st, err := rp.Wait(reqs[0])
		return nil, []simmpi.Status{st}, err
	case "Waitany":
		i, st, err := rp.Waitany(reqs)
		return []int{i}, []simmpi.Status{st}, err
	case "Waitsome":
		return rp.Waitsome(reqs)
	case "Waitall":
		sts, err := rp.Waitall(reqs)
		return nil, sts, err
	}
	return nil, nil, fmt.Errorf("unknown call %s", call)
}

// sources renders the senders of sts as a list.
func sources(sts []simmpi.Status) string {
	src := make([]int, len(sts))
	for i, st := range sts {
		src[i] = st.Source
	}
	return fmt.Sprint(src)
}
