package dst

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
)

// The four executable properties (DESIGN.md §11):
//
//	P1 order    — record → replay releases the observed receive order
//	              exactly, on a different schedule than the record's.
//	P2 rerecord — re-recording during replay reproduces byte-identical
//	              record streams (the paper's Theorem 1 end to end: clocks,
//	              and therefore the whole encoded record, are replayable).
//	P3 decode   — compression is order-oblivious: each schedule's record,
//	              decoded against its own receive multiset, restores its own
//	              observed order (no cross-talk between schedules beyond the
//	              multiset itself).
//	P4 crash    — crash-salvage-replay: under a mid-run rank kill, the
//	              salvaged record replays the crashed run's observed order
//	              through the whole salvaged prefix.

// propSet selects which properties an experiment checks.
type propSet struct{ p1, p2, p3, p4 bool }

func (p propSet) order() bool { return p.p1 || p.p2 || p.p3 }

// rcv identifies one application-observed receive.
type rcv struct {
	src, tag int
	clock    uint64
}

// teeRow is one record-table row as emitted to the storage backend.
type teeRow struct {
	cs uint64
	ev tables.Event
}

// tapLayer logs every matched receive the application observes, in observed
// order. It sits below the recorder — the app→recorder frame chain is
// untouched, so MF callsite identification still resolves application call
// sites — and embeds the lamport layer so the recorder still samples
// Clock(). Appends happen on the rank's own goroutine.
type tapLayer struct {
	*lamport.Layer
	log *[]rcv
}

func (t *tapLayer) tap(sts []simmpi.Status) {
	for _, st := range sts {
		*t.log = append(*t.log, rcv{st.Source, st.Tag, st.Clock})
	}
}

func (t *tapLayer) Test(req *simmpi.Request) (bool, simmpi.Status, error) {
	ok, st, err := t.Layer.Test(req)
	if ok && err == nil {
		t.tap([]simmpi.Status{st})
	}
	return ok, st, err
}

func (t *tapLayer) Testany(reqs []*simmpi.Request) (int, bool, simmpi.Status, error) {
	i, ok, st, err := t.Layer.Testany(reqs)
	if ok && err == nil {
		t.tap([]simmpi.Status{st})
	}
	return i, ok, st, err
}

func (t *tapLayer) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := t.Layer.Testsome(reqs)
	if err == nil {
		t.tap(sts)
	}
	return idxs, sts, err
}

func (t *tapLayer) Testall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	ok, sts, err := t.Layer.Testall(reqs)
	if ok && err == nil {
		t.tap(sts)
	}
	return ok, sts, err
}

func (t *tapLayer) Wait(req *simmpi.Request) (simmpi.Status, error) {
	st, err := t.Layer.Wait(req)
	if err == nil {
		t.tap([]simmpi.Status{st})
	}
	return st, err
}

func (t *tapLayer) Waitany(reqs []*simmpi.Request) (int, simmpi.Status, error) {
	i, st, err := t.Layer.Waitany(reqs)
	if err == nil {
		t.tap([]simmpi.Status{st})
	}
	return i, st, err
}

func (t *tapLayer) Waitsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := t.Layer.Waitsome(reqs)
	if err == nil {
		t.tap(sts)
	}
	return idxs, sts, err
}

func (t *tapLayer) Waitall(reqs []*simmpi.Request) ([]simmpi.Status, error) {
	sts, err := t.Layer.Waitall(reqs)
	if err == nil {
		t.tap(sts)
	}
	return sts, err
}

// teeMethod tees every sink row into a log while forwarding every call to
// the real CDC encoder, the flush, callsite and collective control calls
// included — forwarding those faithfully is what makes a tee'd record
// byte-identical to an unteed one (property P2 compares the two). Rows are
// appended from the recorder's CDC goroutine; reading them is safe after
// Recorder.Close.
type teeMethod struct {
	cdc  *core.Encoder
	rows *[]teeRow
}

func (t *teeMethod) Observe(cs uint64, ev tables.Event) error {
	*t.rows = append(*t.rows, teeRow{cs: cs, ev: ev})
	return t.cdc.Observe(cs, ev)
}

func (t *teeMethod) RegisterCallsite(id uint64, name string) error {
	return t.cdc.RegisterCallsite(id, name)
}

func (t *teeMethod) FlushAll(clock uint64) error { return t.cdc.FlushAll(clock) }
func (t *teeMethod) NoteCollective(clock uint64) { t.cdc.NoteCollective(clock) }

func (t *teeMethod) Close() error { return t.cdc.Close() }

// expParams is everything one schedule execution needs.
type expParams struct {
	wl       workloadSpec
	ranks    int
	short    bool
	seed     int64 // schedule seed: workload internals + derived replay schedules
	depth    int
	policy   Policy
	delivery func(dst, src, tag int, seq uint64) uint64
	props    propSet
	// corpus, when non-nil, receives each decoded chunk's canonical
	// marshaled bytes (fuzz-corpus seeding).
	corpus func([]byte)
}

// encOpts are the encoder settings every order-experiment run shares; P2's
// byte comparison requires the record and re-record runs to agree on them.
// Small chunks exercise multi-chunk streams even on short workloads.
func encOpts() core.EncoderOptions { return core.EncoderOptions{ChunkEvents: 64} }

// recOpts are the recorder settings every run shares. The deterministic
// row-count flush cadence (never the wall-clock one) keeps record bytes a
// pure function of the event stream.
func recOpts() record.Options { return record.Options{FlushEveryRows: 16} }

// deriveSeed derives independent sub-seeds (replay-phase schedules, crash
// placement) from a schedule seed.
func deriveSeed(seed int64, k uint64) int64 {
	return int64(mix64(mix64(uint64(seed)^0x6a09e667f3bcc909) + k))
}

// openReplay builds a rank's Replayer the way cdc.Replay does — a prescan
// pass, then a chunk feed pulled lazily from the (possibly pooled) decoder
// — so the properties run against exactly the production replay path.
func openReplay(mpi simmpi.MPI, open func() (*core.RecordIter, io.Closer, error), opts replay.Options) (*replay.Replayer, error) {
	return replay.Open(lamport.WrapManual(mpi), open, opts)
}

// runReplay drives app on rp, verifies the rank and closes the replayer,
// reporting the first failure.
func runReplay(rp *replay.Replayer, app appFunc) error {
	aerr := app(rp)
	var verr error
	if aerr == nil {
		verr = rp.Verify()
	}
	cerr := rp.Close()
	if aerr != nil {
		return aerr
	}
	if verr != nil {
		return verr
	}
	return cerr
}

// runOrder executes the order experiment for one schedule: a record phase
// driven by p.policy, then P1 (replay on a different schedule), P2
// (re-record during replay, byte compare), and P3 (decode against the
// observed multiset). It returns the record phase's decision trace and the
// first property violation (nil when everything holds).
func runOrder(p expParams) (decisions, counts []int, verdict error) {
	app := p.wl.app(p.short, p.seed)

	// --- Record phase: the schedule under test.
	seqA := newSequencer(p.ranks, p.policy)
	wA := simmpi.NewWorld(p.ranks, simmpi.Options{Sequencer: seqA, Delivery: p.delivery})
	bufs := make([]*bytes.Buffer, p.ranks)
	taps := make([][]rcv, p.ranks)
	rows := make([][]teeRow, p.ranks)
	errA := wA.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bufs[rank] = &bytes.Buffer{}
		enc, err := core.NewEncoder(bufs[rank], encOpts())
		if err != nil {
			return err
		}
		tee := &teeMethod{cdc: enc, rows: &rows[rank]}
		tap := &tapLayer{Layer: lamport.Wrap(mpi), log: &taps[rank]}
		rec := record.New(tap, tee, recOpts())
		aerr := app(rec)
		cerr := rec.Close()
		if aerr != nil {
			return aerr
		}
		return cerr
	})
	decisions, counts, seqFail := seqA.results()
	if errA != nil {
		return decisions, counts, fmt.Errorf("record phase: %w", errA)
	}
	if seqFail != nil {
		return decisions, counts, fmt.Errorf("record phase: %w", seqFail)
	}

	if p.props.p1 {
		if err := checkReplayOrder(p, app, bufs, taps); err != nil {
			return decisions, counts, err
		}
	}
	if p.props.p2 {
		if err := checkReRecord(p, app, bufs); err != nil {
			return decisions, counts, err
		}
	}
	if p.props.p3 {
		if err := checkDecode(p, bufs, rows); err != nil {
			return decisions, counts, err
		}
	}
	return decisions, counts, nil
}

// checkReplayOrder is P1: replaying the record on an unrelated schedule
// must release the recorded observed order exactly, rank by rank.
func checkReplayOrder(p expParams, app appFunc, bufs []*bytes.Buffer, taps [][]rcv) error {
	seq := newSequencer(p.ranks, &randomPolicy{rng: newRng(deriveSeed(p.seed, 1))})
	w := simmpi.NewWorld(p.ranks, simmpi.Options{Sequencer: seq, Delivery: deliveryFor("", 0, 0)})
	reps := make([][]rcv, p.ranks)
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplay(mpi, replay.RecordBytes(bufs[rank].Bytes()), replay.Options{
			OnRelease: func(st simmpi.Status) {
				reps[rank] = append(reps[rank], rcv{st.Source, st.Tag, st.Clock})
			},
		})
		if err != nil {
			return err
		}
		return runReplay(rp, app)
	})
	if err != nil {
		return fmt.Errorf("P1 replay-order: replay run: %w", err)
	}
	for r := 0; r < p.ranks; r++ {
		if len(reps[r]) != len(taps[r]) {
			return fmt.Errorf("P1 replay-order: rank %d released %d receives, recorded %d",
				r, len(reps[r]), len(taps[r]))
		}
		for i := range taps[r] {
			if reps[r][i] != taps[r][i] {
				return fmt.Errorf("P1 replay-order: rank %d receive %d diverged: recorded %+v, replayed %+v",
					r, i, taps[r][i], reps[r][i])
			}
		}
	}
	return nil
}

// checkReRecord is P2, the paper's Theorem 1 end to end: stacking a fresh
// recorder on top of the replayer (on yet another schedule) must reproduce
// every rank's record stream byte for byte — possible only if the replayed
// Lamport clocks, observed orders, and flush cadence all match the original
// run exactly.
func checkReRecord(p expParams, app appFunc, bufs []*bytes.Buffer) error {
	seq := newSequencer(p.ranks, &randomPolicy{rng: newRng(deriveSeed(p.seed, 2))})
	w := simmpi.NewWorld(p.ranks, simmpi.Options{Sequencer: seq, Delivery: deliveryFor("", 0, 0)})
	bufs2 := make([]*bytes.Buffer, p.ranks)
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		// CallsiteSkip hops over the interposed recorder frame so the
		// replayer resolves the application's call sites, as the record did.
		rp, err := openReplay(mpi, replay.RecordBytes(bufs[rank].Bytes()),
			replay.Options{CallsiteSkip: 1})
		if err != nil {
			return err
		}
		bufs2[rank] = &bytes.Buffer{}
		enc, err := core.NewEncoder(bufs2[rank], encOpts())
		if err != nil {
			rp.Close() //cdc:allow(errsink) best-effort cleanup; the encoder error is already propagating
			return err
		}
		rerec := record.New(rp, enc, recOpts())
		return runReplay(rp, func(mpi simmpi.MPI) error {
			return errors.Join(app(rerec), rerec.Close())
		})
	})
	if err != nil {
		return fmt.Errorf("P2 re-record: replay run: %w", err)
	}
	for r := 0; r < p.ranks; r++ {
		if !bytes.Equal(bufs[r].Bytes(), bufs2[r].Bytes()) {
			return fmt.Errorf("P2 re-record: rank %d re-recorded stream differs (%d vs %d bytes)",
				r, bufs2[r].Len(), bufs[r].Len())
		}
	}
	return nil
}

// checkDecode is P3: decoding each rank's record against its own observed
// receive multiset must restore exactly the row stream the recorder
// emitted — the chunk encoding carries the schedule's order and nothing
// else leaks in from other schedules sharing the same multiset.
func checkDecode(p expParams, bufs []*bytes.Buffer, rows [][]teeRow) error {
	corpus := p.corpus
	for rank := range bufs {
		it, err := core.OpenRecord(bytes.NewReader(bufs[rank].Bytes()))
		if err != nil {
			return fmt.Errorf("P3 decode: rank %d: %w", rank, err)
		}
		want := map[uint64][]tables.Event{}
		matched := map[uint64][]tables.MatchedEntry{}
		for _, row := range rows[rank] {
			want[row.cs] = append(want[row.cs], row.ev)
			if ev := row.ev; ev.Flag {
				matched[row.cs] = append(matched[row.cs], tables.MatchedEntry{Rank: ev.Rank, Clock: ev.Clock, Tag: ev.Tag})
			}
		}
		// Stream the chunks, restoring each callsite's rows against its
		// observed messages in record order.
		var order []uint64
		got := map[uint64][]tables.Event{}
		mi := map[uint64]int{}
		chunks := map[uint64]int{}
		var b cdcformat.Builder
		for err == nil {
			var f *core.Frame
			if f, err = it.Next(); err != nil || f.Chunk == nil {
				continue
			}
			ch, cs := f.Chunk, f.Chunk.Callsite
			if chunks[cs] == 0 {
				order = append(order, cs)
			}
			ci, nm := chunks[cs], int(ch.NumMatched)
			chunks[cs]++
			if mi[cs]+nm > len(matched[cs]) {
				it.Close() //cdc:allow(errsink) in-memory source; the verdict is already propagating
				return fmt.Errorf("P3 decode: rank %d callsite %#x chunk %d wants %d messages, only %d observed remain",
					rank, cs, ci, nm, len(matched[cs])-mi[cs])
			}
			evs, rerr := ch.ReconstructEvents(matched[cs][mi[cs] : mi[cs]+nm])
			if rerr != nil {
				it.Close() //cdc:allow(errsink) in-memory source; the verdict is already propagating
				return fmt.Errorf("P3 decode: rank %d callsite %#x chunk %d: %w", rank, cs, ci, rerr)
			}
			mi[cs] += nm
			got[cs] = append(got[cs], evs...)
			if corpus != nil {
				corpus(b.AppendMarshal(nil, ch))
			}
		}
		it.Close() //cdc:allow(errsink) in-memory source; decode errors surface from Next
		if err != io.EOF {
			return fmt.Errorf("P3 decode: rank %d: %w", rank, err)
		}
		for _, cs := range order {
			wantRows := want[cs]
			if mi[cs] != len(matched[cs]) {
				return fmt.Errorf("P3 decode: rank %d callsite %#x decoded %d matched events, observed %d",
					rank, cs, mi[cs], len(matched[cs]))
			}
			if len(got[cs]) != len(wantRows) {
				return fmt.Errorf("P3 decode: rank %d callsite %#x restored %d rows, observed %d",
					rank, cs, len(got[cs]), len(wantRows))
			}
			for i, ev := range got[cs] {
				if ev != wantRows[i] {
					return fmt.Errorf("P3 decode: rank %d callsite %#x row %d: restored %+v, observed %+v",
						rank, cs, i, ev, wantRows[i])
				}
			}
			delete(want, cs)
		}
		if len(want) > 0 {
			return fmt.Errorf("P3 decode: rank %d: %d observed callsite(s) missing from the record", rank, len(want))
		}
	}
	return nil
}

// runCrash executes the P4 experiment for one schedule: record the workload
// under a fault plan that kills a rank mid-run (crash point derived from
// the seed), salvage the torn run, replay the salvaged record on an
// unrelated schedule with live handback, and require every rank's replayed
// order to match the crashed run's observed order through the whole
// salvaged prefix. The harness runs it over a temporary dir-layout store;
// RunCrashSalvage points the same experiment at any backend.
func runCrash(p expParams) (decisions, counts []int, verdict error) {
	dir, err := os.MkdirTemp("", "dst-crash-rec")
	if err != nil {
		return nil, nil, fmt.Errorf("P4 crash: %w", err)
	}
	defer os.RemoveAll(dir)
	return runCrashStore(p, dirstore.New(dir))
}

// RunCrashSalvage executes one P4 crash-salvage-replay experiment against
// st: record a workload while a fault plan SIGKILL-equivalently aborts a
// rank mid-run, salvage the torn run in place through st.Salvage, then
// replay on an unrelated schedule and require the salvaged prefix to
// reproduce the crashed run's observed receive order. It is the storage
// conformance suite's crash-safety probe — any backend whose salvage hook
// recovers a cross-rank-consistent prefix passes, regardless of layout.
// The store must be empty; seed varies schedule, traffic, and kill point.
func RunCrashSalvage(seed int64, st store.Store) error {
	_, _, verdict := runCrashStore(crashParams(seed), st)
	return verdict
}

// CrashRecord is RunCrashSalvage's record phase alone: it records the same
// workload into the empty store st while the seed's fault plan aborts a
// rank mid-run, and leaves the torn, incomplete run behind for a salvage
// under test. Ranks that outran the fault closed cleanly; the run is never
// finalized either way.
func CrashRecord(seed int64, st store.Store) error {
	p := crashParams(seed)
	_, _, _, _, err := crashRecord(p, p.wl.app(p.short, p.seed), st)
	return err
}

// crashParams is the P4 experiment the storage conformance suite runs.
func crashParams(seed int64) expParams {
	wl := workloads["exchange"]
	return expParams{
		wl: wl, ranks: wl.ranks, short: true, seed: seed,
		policy:   &randomPolicy{rng: newRng(seed)},
		delivery: deliveryFor("", 0, 0),
		props:    propSet{p4: true},
	}
}

// crashRecord is P4's record phase: it records app into st under the
// seed's fault plan and returns each rank's application-observed receive
// log and whether the kill fired.
func crashRecord(p expParams, app appFunc, st store.Store) (taps [][]rcv, aborted bool, decisions, counts []int, err error) {
	if err := st.Create(store.Manifest{Ranks: p.ranks, App: "dst-" + p.wl.name}); err != nil {
		return nil, false, nil, nil, fmt.Errorf("P4 crash: %w", err)
	}
	plan := &simmpi.FaultPlan{
		KillRank:          int(mix64(uint64(p.seed)+0x51) % uint64(p.ranks)),
		KillAfterReceives: 2 + mix64(uint64(p.seed)+0x52)%8,
	}
	seqA := newSequencer(p.ranks, p.policy)
	wA := simmpi.NewWorld(p.ranks, simmpi.Options{Sequencer: seqA, Delivery: p.delivery, Faults: plan})
	taps = make([][]rcv, p.ranks)
	errA := wA.RunRanked(func(rank int, mpi simmpi.MPI) error {
		w, err := st.CreateRank(rank)
		if err != nil {
			return err
		}
		enc, err := core.NewEncoder(w, core.EncoderOptions{
			ChunkEvents: 64, Durable: true, SeekableCuts: st.Seekable(),
			OnFlushPoint: func(clock, events uint64, offset int64) error {
				return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
			},
		})
		if err != nil {
			w.Close()
			return err
		}
		tap := &tapLayer{Layer: lamport.Wrap(mpi), log: &taps[rank]}
		rec := record.New(tap, enc, recOpts())
		aerr := app(rec)
		if aerr == nil {
			if cerr := rec.Close(); cerr != nil {
				w.Close()
				return cerr
			}
			return w.Close()
		}
		rec.Abandon()
		w.Close()
		if errors.Is(aerr, simmpi.ErrKilled) || errors.Is(aerr, simmpi.ErrAborted) {
			return nil
		}
		return aerr
	})
	decisions, counts, seqFail := seqA.results()
	if errA != nil {
		return nil, false, decisions, counts, fmt.Errorf("P4 crash: record phase: %w", errA)
	}
	if seqFail != nil {
		return nil, false, decisions, counts, fmt.Errorf("P4 crash: record phase: %w", seqFail)
	}
	return taps, wA.Aborted(), decisions, counts, nil
}

// runCrashStore is runCrash against an arbitrary storage backend; salvage
// happens in place through the store's own hook.
func runCrashStore(p expParams, st store.Store) (decisions, counts []int, verdict error) {
	app := p.wl.app(p.short, p.seed)
	taps, aborted, decisions, counts, err := crashRecord(p, app, st)
	if err != nil || !aborted {
		// Without an abort the schedule finished before the kill point
		// fired, and the property holds vacuously for it.
		return decisions, counts, err
	}

	report, err := st.Salvage()
	if err != nil {
		return decisions, counts, fmt.Errorf("P4 crash: salvage: %w", err)
	}
	if report == nil {
		return decisions, counts, fmt.Errorf("P4 crash: salvage of an aborted run reported nothing to recover")
	}

	seqB := newSequencer(p.ranks, &randomPolicy{rng: newRng(deriveSeed(p.seed, 3))})
	wB := simmpi.NewWorld(p.ranks, simmpi.Options{Sequencer: seqB, Delivery: deliveryFor("", 0, 0)})
	reps := make([][]rcv, p.ranks)
	errB := wB.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplay(mpi, func() (*core.RecordIter, io.Closer, error) {
			return store.OpenRankIter(st, rank, core.DecoderOptions{})
		}, replay.Options{
			LiveAfterExhausted: true,
			OnRelease: func(st simmpi.Status) {
				reps[rank] = append(reps[rank], rcv{st.Source, st.Tag, st.Clock})
			},
		})
		if err != nil {
			return err
		}
		return runReplay(rp, app)
	})
	if errB != nil {
		return decisions, counts, fmt.Errorf("P4 crash: replay run: %w", errB)
	}
	for r := 0; r < p.ranks; r++ {
		n := int(report.Ranks[r].EventsKept)
		if len(taps[r]) < n || len(reps[r]) < n {
			return decisions, counts, fmt.Errorf("P4 crash: rank %d logs shorter than salvaged prefix: recorded %d, replayed %d, want >= %d",
				r, len(taps[r]), len(reps[r]), n)
		}
		for i := 0; i < n; i++ {
			if reps[r][i] != taps[r][i] {
				return decisions, counts, fmt.Errorf("P4 crash: rank %d receive %d/%d diverged: recorded %+v, replayed %+v",
					r, i, n, taps[r][i], reps[r][i])
			}
		}
	}
	return decisions, counts, nil
}
