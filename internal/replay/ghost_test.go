package replay

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// heldReceives wraps the MPI an application sees and counts the receives
// it holds: posted with Irecv and not yet reported complete. It counts
// completions only through Testsome, the one completion call mcb makes.
type heldReceives struct {
	simmpi.MPI
	held  int
	specs map[specPair]bool
}

func (h *heldReceives) Irecv(src, tag int) (*simmpi.Request, error) {
	req, err := h.MPI.Irecv(src, tag)
	if err == nil {
		h.held++
		h.specs[specPair{src, tag}] = true
	}
	return req, err
}

func (h *heldReceives) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := h.MPI.Testsome(reqs)
	h.held -= len(idxs)
	return idxs, sts, err
}

// mcbApp runs mcb and reports each rank's order-sensitive results as its
// one observation.
func mcbApp(p mcb.Params) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		res, err := mcb.Run(mpi, p)
		if err != nil {
			return nil, err
		}
		return []observation{{Payload: fmt.Sprintf("tally %x global %x received %d",
			math.Float64bits(res.Tally), math.Float64bits(res.GlobalTally), res.Received)}}, nil
	}
}

// TestOutstandingBoundedByAppReceives replays a multi-step mcb record and
// checks, after every collect, that the replayer polls no more receives
// below than the application holds plus one probe per spec it posts. A
// receive virtually completed before its own message arrived must be
// handed back when the application re-posts its spec, not left posted
// beside the new one.
func TestOutstandingBoundedByAppReceives(t *testing.T) {
	const ranks = 4
	p := mcb.Params{Particles: 200, TimeSteps: 3, CrossProb: 0.4, Seed: 101}
	want, files := runRecord(t, ranks, 1001, mcbApp(p))

	var mu sync.Mutex
	views := map[*Replayer]*heldReceives{}
	checks, peak := 0, 0
	var first string
	afterCollect = func(s *stream, rp *Replayer) {
		mu.Lock()
		defer mu.Unlock()
		v := views[rp]
		bound := v.held + len(v.specs)
		checks++
		peak = max(peak, len(rp.outstanding))
		if len(rp.outstanding) > bound && first == "" {
			first = fmt.Sprintf("rank %d at %s: %d receives outstanding below, app holds %d over %d specs",
				rp.Rank(), s.name, len(rp.outstanding), v.held, len(v.specs))
		}
	}
	defer func() { afterCollect = nil }()

	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: 2002, MaxJitter: 8})
	got := make([][]observation, ranks)
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		// CallsiteSkip steps over heldReceives' frame so replay resolves
		// mcb's own Testsome lines, as the record did.
		rp, err := Open(lamport.WrapManual(mpi), RecordBytes(files[rank]), Options{CallsiteSkip: 1})
		if err != nil {
			return err
		}
		defer rp.Close()
		v := &heldReceives{MPI: rp, specs: map[specPair]bool{}}
		mu.Lock()
		views[rp] = v
		mu.Unlock()
		obs, err := mcbApp(p)(v)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		got[rank] = obs
		return rp.Verify()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if fmt.Sprint(got[r]) != fmt.Sprint(want[r]) {
			t.Fatalf("rank %d: replay diverged: got %v, want %v", r, got[r], want[r])
		}
	}
	if checks == 0 {
		t.Fatal("no collect ran; the bound was never checked")
	}
	if first != "" {
		t.Fatalf("outstanding set exceeds the application's receives (peak %d over %d checks); first: %s", peak, checks, first)
	}
	t.Logf("%d checks, peak outstanding %d", checks, peak)
}

// ghostRig is rank 0's replayer over prebuilt chunks (callsite 0, MF
// identification off) in a 4-rank world whose messages reach rank 0 at its
// next poll. The test goroutine sends as ranks 1 to 3.
type ghostRig struct {
	rp      *Replayer
	senders []*lamport.Layer
}

func newGhostRig(t *testing.T, opts Options, events ...[]tables.Event) *ghostRig {
	t.Helper()
	var chunks chunkList
	cm := &CallsiteMeta{}
	for _, ev := range events {
		c := cdcformat.BuildChunkWithSenders(0, ev)
		chunks = append(chunks, c)
		cm.Chunks++
		cm.Events += c.NumMatched
	}
	w := simmpi.NewWorld(4, simmpi.Options{
		Delivery:    func(dst, src, tag int, seq uint64) uint64 { return 0 },
		WaitTimeout: 5 * time.Second,
	})
	opts.DisableMFID = true
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	rp := NewStream(lamport.WrapManual(w.Comm(0)),
		&RecordMeta{Callsites: map[uint64]*CallsiteMeta{0: cm}}, &chunks, opts)
	t.Cleanup(func() { rp.Close() })
	return &ghostRig{rp: rp, senders: []*lamport.Layer{nil, lamport.Wrap(w.Comm(1)), lamport.Wrap(w.Comm(2)), lamport.Wrap(w.Comm(3))}}
}

func (g *ghostRig) irecv(t *testing.T, src, tag int) *simmpi.Request {
	t.Helper()
	req, err := g.rp.Irecv(src, tag)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func (g *ghostRig) send(t *testing.T, from, tag int) {
	t.Helper()
	if err := g.senders[from].Send(0, tag, []byte{byte(from)}); err != nil {
		t.Fatal(err)
	}
}

// harvestAll polls below until want completions are pooled.
func (g *ghostRig) harvestAll(t *testing.T, want int) {
	t.Helper()
	for i := 0; len(g.rp.pool) < want; i++ {
		if i == 1000 {
			t.Fatalf("pooled %d of %d messages", len(g.rp.pool), want)
		}
		if _, err := g.rp.pollBelow(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGhostReuseRequiresIdenticalSpec: a ghost is handed back only to an
// Irecv of exactly its spec, never to a wider or narrower one that would
// accept different messages, and a ghost harvested meanwhile is skipped.
func TestGhostReuseRequiresIdenticalSpec(t *testing.T) {
	g := newGhostRig(t, Options{})
	anyT := g.irecv(t, simmpi.AnySource, 5)
	from2 := g.irecv(t, 2, 5)
	g.rp.finishSlot(anyT)
	g.rp.finishSlot(from2)

	if got := g.irecv(t, 2, 5); got != from2 {
		t.Fatalf("Irecv(2, 5) did not hand back the (2, 5) ghost")
	}
	if got := g.irecv(t, 1, 5); got == anyT {
		t.Fatal("Irecv(1, 5) handed back an (AnySource, 5) ghost")
	}
	if got := g.irecv(t, simmpi.AnySource, 6); got == anyT {
		t.Fatal("Irecv(AnySource, 6) handed back an (AnySource, 5) ghost")
	}
	if got := g.irecv(t, simmpi.AnySource, 5); got != anyT {
		t.Fatal("Irecv(AnySource, 5) did not hand back the (AnySource, 5) ghost")
	}
	if n := len(g.rp.outstanding); n != 4 {
		t.Fatalf("%d receives outstanding below, want 4", n)
	}

	// A ghost whose own message arrives is harvested; the next Irecv of its
	// spec must post afresh rather than hand back a completed request.
	g.rp.finishSlot(anyT)
	g.send(t, 1, 5) // binds anyT, the oldest posted receive accepting it
	g.harvestAll(t, 1)
	if g.rp.pool[0].req != anyT {
		t.Fatal("message did not bind to the (AnySource, 5) ghost")
	}
	if got := g.irecv(t, simmpi.AnySource, 5); got == anyT {
		t.Fatal("Irecv handed back a harvested ghost")
	}
	if n := len(g.rp.outstanding); n != 4 {
		t.Fatalf("%d receives outstanding below, want 4", n)
	}
}

// TestGhostReuseOrderedSlots: reused ghosts serve Waitall and Testall,
// whose recorded group members map to request slots in order whatever
// request each message bound to below.
func TestGhostReuseOrderedSlots(t *testing.T) {
	g := newGhostRig(t, Options{}, []tables.Event{
		// Waitall
		tables.MatchedTagged(1, 5, 1, true), tables.MatchedTagged(2, 5, 1, false),
		// failed Testall, then matched Testall
		tables.Unmatched(1),
		tables.MatchedTagged(1, 5, 2, true), tables.MatchedTagged(2, 5, 2, false),
	})
	ghostPair := func() []*simmpi.Request {
		a, b := g.irecv(t, simmpi.AnySource, 5), g.irecv(t, simmpi.AnySource, 5)
		g.rp.finishSlot(a)
		g.rp.finishSlot(b)
		reqs := []*simmpi.Request{g.irecv(t, simmpi.AnySource, 5), g.irecv(t, simmpi.AnySource, 5)}
		if reqs[0] != a || reqs[1] != b {
			t.Fatal("Irecv did not hand back the ghosts oldest first")
		}
		return reqs
	}
	checkOrder := func(call string, sts []simmpi.Status) {
		t.Helper()
		if len(sts) != 2 || sts[0].Source != 1 || sts[1].Source != 2 {
			t.Fatalf("%s statuses %+v, want sources 1 then 2", call, sts)
		}
	}

	// Rank 2's message arrives first and binds slot 0, but the record puts
	// rank 1's message in slot 0.
	reqs := ghostPair()
	g.send(t, 2, 5)
	g.send(t, 1, 5)
	sts, err := g.rp.Waitall(reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkOrder("Waitall", sts)

	reqs = ghostPair()
	if ok, _, err := g.rp.Testall(reqs); ok || err != nil {
		t.Fatalf("recorded failed Testall returned ok=%v err=%v", ok, err)
	}
	g.send(t, 2, 5)
	g.send(t, 1, 5)
	ok, sts, err := g.rp.Testall(reqs)
	if !ok || err != nil {
		t.Fatalf("recorded matched Testall returned ok=%v err=%v", ok, err)
	}
	checkOrder("Testall", sts)
	if err := g.rp.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := len(g.rp.outstanding); n != 0 {
		t.Fatalf("%d receives left outstanding below, want 0", n)
	}
}

// TestGhostReuseAcrossLiveHandback: a ghost made while replaying and
// handed back by Irecv keeps serving once the record is exhausted and the
// replayer goes live. The slot whose own message was released through the
// ghost's slot then has no receive of its own below, so the live phase
// must post one for it, as the replay phase does.
func TestGhostReuseAcrossLiveHandback(t *testing.T) {
	for _, call := range []string{"Wait", "Testsome", "Testall"} {
		t.Run(call, func(t *testing.T) {
			g := newGhostRig(t, Options{LiveAfterExhausted: true},
				[]tables.Event{tables.MatchedTagged(1, 5, 1, false)})
			a := g.irecv(t, simmpi.AnySource, 5)
			b := g.irecv(t, simmpi.AnySource, 5)
			g.send(t, 1, 5) // binds a
			if _, sts, err := g.rp.Testsome([]*simmpi.Request{b}); err != nil || len(sts) != 1 {
				t.Fatalf("replayed Testsome: %v %v", sts, err)
			}
			if c := g.irecv(t, simmpi.AnySource, 5); c != b {
				t.Fatal("Irecv did not hand back the ghost left by the out-of-order release")
			}

			// Past the record: b still holds its posted receive, a holds none.
			g.send(t, 2, 5)
			g.send(t, 1, 5)
			got := map[int]bool{}
			for _, req := range []*simmpi.Request{b, a} {
				var st simmpi.Status
				var err error
				switch call {
				case "Wait":
					st, err = g.rp.Wait(req)
				case "Testsome":
					var sts []simmpi.Status
					for i := 0; len(sts) == 0 && err == nil; i++ {
						if i == 100000 {
							t.Fatal("live Testsome never completed")
						}
						_, sts, err = g.rp.Testsome([]*simmpi.Request{req})
					}
					if err == nil {
						st = sts[0]
					}
				case "Testall":
					var sts []simmpi.Status
					for ok, i := false, 0; !ok && err == nil; i++ {
						if i == 100000 {
							t.Fatal("live Testall never completed")
						}
						ok, sts, err = g.rp.Testall([]*simmpi.Request{req})
					}
					if err == nil {
						st = sts[0]
					}
				}
				if err != nil {
					t.Fatalf("live %s: %v", call, err)
				}
				got[st.Source] = true
			}
			if live, _ := g.rp.Live(); !live || !got[1] || !got[2] {
				t.Fatalf("live=%v, delivered sources %v, want 1 and 2", live, got)
			}
			if errors.Is(g.rp.Verify(), ErrExhausted) {
				t.Fatal("Verify reported exhaustion after the handback")
			}
		})
	}
}
