package ingestd

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/store"
)

// ingestApp is the manifest App stamp for daemon-recorded runs.
const ingestApp = "ingest"

// rankState is one rank's ingest state within a run. All fields are
// guarded by the owning run's mu.
type rankState struct {
	rank int
	blob store.BlobWriter
	enc  *core.Encoder

	// names tracks callsites registered with THIS encoder instance, so a
	// client resending names after reconnect does not double-register.
	names map[uint64]bool
	// openGroups counts callsites whose last row had WithNext set: their
	// pending events sit in an unfinished MF group, and core.FlushAll
	// would skip them (writing no durable mark), so sealing waits until
	// every group closes.
	midGroup   map[uint64]bool
	openGroups int

	// offset counts logical events consumed into the encoder.
	offset uint64
	// clock is the largest producer clock observed, stamped on cuts.
	clock uint64
	// rowsSinceSeal counts logical events since the last durable cut.
	rowsSinceSeal uint64
	// next accumulates the cross-rank references of the span being
	// observed; seal stamps its clock and moves it onto segments.
	next     store.SegmentSummary
	lastSeal time.Time

	// segments are sealed spans — everything between two durable flush
	// cuts — awaiting the cross-rank ack barrier; ends[i] is the rank's
	// logical-event offset at segments[i]'s cut.
	segments []store.SegmentSummary
	ends     []uint64
	// acked is the offset promised durable to the client; ackedClock the
	// flush clock of the last acked cut.
	acked      uint64
	ackedClock uint64

	diskAccounted int64 // enc.BytesWritten() already charged to the tenant

	sess         *session
	everAttached bool
	resumed      bool // reopened from an on-disk record at daemon start
	finished     bool // client Finish observed and fully drained
	closed       bool // encoder closed (no further appends this process)
	err          error
}

// run is one (tenant, run) record store being ingested.
type run struct {
	key    string
	tenant *tenantState
	st     store.Store
	ranks  int

	// mu guards every rankState and the fields below. Coarse per-run
	// locking is deliberate: contention exists only between ranks of the
	// same run (rare — each rank has its own session and worker shard),
	// while distinct runs ingest fully in parallel.
	mu        sync.Mutex
	rankState map[int]*rankState
	finalized bool
}

// openRun finds or creates the run's record store. Called with the
// server mu held (run creation is rare; steady-state attaches hit the
// in-memory map first).
func (s *Server) openRun(tenant *tenantState, h ingestwire.Hello) (*run, *ingestwire.Reject) {
	key := h.Tenant + "/" + h.Run
	if r := s.runs[key]; r != nil {
		if r.ranks != h.Ranks {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectRanksConflict,
				Msg: fmt.Sprintf("run %s has %d ranks, hello says %d", key, r.ranks, h.Ranks)}
		}
		return r, nil
	}
	st, err := s.root.Open(key)
	if err != nil {
		return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
	}
	r := &run{key: key, tenant: tenant, st: st, ranks: h.Ranks, rankState: make(map[int]*rankState)}
	m, err := st.Manifest()
	switch {
	case err == nil:
		if m.Ranks != h.Ranks {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectRanksConflict,
				Msg: fmt.Sprintf("run %s recorded %d ranks, hello says %d", key, m.Ranks, h.Ranks)}
		}
		// Mark the run in-progress again so a crash mid-append is seen by
		// the next restart's salvage instead of passing for complete.
		if _, err := st.Reopen(); err != nil {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
		}
		if err := seedFinishedRanks(r, m); err != nil {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
		}
	case errors.Is(err, fs.ErrNotExist):
		if err := st.Create(store.Manifest{Ranks: h.Ranks, App: ingestApp}); err != nil {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
		}
	default:
		return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
	}
	s.runs[key] = r
	return r, nil
}

// seedFinishedRanks gives every rank the manifest lists as finished a
// finished, closed state, acked to its end. Such a rank's client finished
// before a previous process stopped, so it has no reason to reattach;
// without this state the ack barrier would treat the rank as one with no
// durable data, and the run could never finalize. Only finishRank lists a
// rank, and salvage drops every rank it trims, so a rank that Drain
// closed or salvage rewrote is not taken for a finished one.
func seedFinishedRanks(r *run, m store.Manifest) error {
	for _, rank := range m.Finished {
		if rank < 0 || rank >= r.ranks {
			return fmt.Errorf("run %s: manifest lists finished rank %d of %d", r.key, rank, r.ranks)
		}
		events, clock, err := store.RankFrontier(r.st, rank)
		if err != nil {
			return err
		}
		r.rankState[rank] = &rankState{
			rank:   rank,
			offset: events, clock: clock,
			acked: events, ackedClock: clock,
			resumed: true, finished: true, closed: true,
		}
	}
	return nil
}

// openRank finds or opens one rank's record blob and encoder. Called with
// the run's mu held.
//
// A state seeded by seedFinishedRanks holds no encoder. Until the run
// finalizes, a client reattaching to one gets a resumable state in its
// place, as if no state had been seeded; once the run is final, the
// client gets DONE from the seeded state.
func (s *Server) openRank(r *run, rank int) (*rankState, error) {
	if rs := r.rankState[rank]; rs != nil && (rs.enc != nil || r.finalized) {
		if rs.err != nil {
			return nil, rs.err
		}
		return rs, nil
	}
	w, resume, err := r.st.AppendRank(rank)
	if err != nil {
		return nil, err
	}
	rs := &rankState{
		rank:     rank,
		blob:     w,
		names:    make(map[uint64]bool),
		midGroup: make(map[uint64]bool),
		lastSeal: time.Now(),
	}
	opts := core.EncoderOptions{
		ChunkEvents:  s.cfg.ChunkEvents,
		Durable:      s.cfg.Durable,
		Obs:          s.cfg.Obs,
		SeekableCuts: r.st.Seekable(),
		// Every durable seal also commits an epoch-index entry into the
		// manifest, so replay tooling can read the run mid-ingest pinned to
		// the last committed cut.
		OnFlushPoint: func(clock, events uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
		},
	}
	if resume {
		// Everything already on disk survived salvage, so it is durable
		// AND run-consistent: the resumed frontier starts fully acked.
		events, clock, err := store.RankFrontier(r.st, rank)
		if err != nil {
			w.Close() //cdc:allow(errsink) open failed; best-effort release
			return nil, err
		}
		rs.offset, rs.clock = events, clock
		rs.acked, rs.ackedClock = events, clock
		rs.resumed = true
		opts.Resume, opts.ResumeClock = true, clock
	}
	rs.enc, err = core.NewEncoder(w, opts)
	if err != nil {
		w.Close() //cdc:allow(errsink) open failed; best-effort release
		return nil, err
	}
	r.rankState[rank] = rs
	return rs, nil
}

// observe feeds one wire row into the rank's encoder. Caller holds the
// run's mu.
func (r *run) observe(rs *rankState, row ingestwire.Row) error {
	if rs.closed {
		return fmt.Errorf("rank %d: row after finish", rs.rank)
	}
	ev := row.Ev
	if ev.Flag {
		if int(ev.Rank) < 0 || int(ev.Rank) >= r.ranks {
			return fmt.Errorf("rank %d: matched event references rank %d of %d", rs.rank, ev.Rank, r.ranks)
		}
	} else if ev.Count == 0 {
		return fmt.Errorf("rank %d: unmatched row with zero count", rs.rank)
	}
	if row.Name != "" && !rs.names[row.Callsite] {
		if err := rs.enc.RegisterCallsite(row.Callsite, row.Name); err != nil {
			return err
		}
		rs.names[row.Callsite] = true
	}
	if err := rs.enc.Observe(row.Callsite, ev); err != nil {
		return err
	}
	open := ev.Flag && ev.WithNext
	if rs.midGroup[row.Callsite] != open {
		rs.midGroup[row.Callsite] = open
		if open {
			rs.openGroups++
		} else {
			rs.openGroups--
		}
	}
	if ev.Flag {
		rs.next.Ref(ev.Rank, ev.Clock)
	}
	if row.Clock > rs.clock {
		rs.clock = row.Clock
	}
	w := row.Weight()
	rs.offset += w
	rs.rowsSinceSeal += w
	return nil
}

// seal writes a durable flush cut for the rank, turning everything
// observed so far into a barrier-gated segment. A no-op while an MF group
// is open (the cut would skip that stream and carry no mark) or when
// nothing new was observed. Caller holds the run's mu.
func (r *run) seal(rs *rankState) error {
	if rs.closed || rs.rowsSinceSeal == 0 || rs.openGroups > 0 {
		return nil
	}
	before := rs.enc.Stats().FlushPoints
	if err := rs.enc.FlushAll(rs.clock); err != nil {
		return err
	}
	if rs.enc.Stats().FlushPoints == before {
		// No mark was written (an open group slipped past the openGroups
		// accounting): the cut is not durable, so nothing is sealed.
		return nil
	}
	rs.pushSegment()
	return r.chargeDisk(rs)
}

// finishRank closes the record of a rank whose client finished and lists
// the rank as finished in the manifest, so that a later process counts
// the rank without its client (seedFinishedRanks). Caller holds the run's
// mu.
func (r *run) finishRank(rs *rankState) error {
	rs.finished = true
	if err := r.closeRank(rs); err != nil {
		return err
	}
	return r.st.MarkFinished(rs.rank)
}

// closeRank finishes the rank's record: every pending stream flushes and
// the final mark makes the whole stream durable. Caller holds the run's
// mu.
func (r *run) closeRank(rs *rankState) error {
	if rs.closed {
		return nil
	}
	rs.closed = true
	if err := rs.enc.Close(); err != nil {
		return err
	}
	if rs.rowsSinceSeal > 0 {
		rs.pushSegment()
	}
	if err := r.chargeDisk(rs); err != nil {
		return err
	}
	err := rs.blob.Close()
	rs.blob = nil
	return err
}

func (rs *rankState) pushSegment() {
	rs.next.Clock = rs.clock
	rs.segments = append(rs.segments, rs.next)
	rs.ends = append(rs.ends, rs.offset)
	rs.next = store.SegmentSummary{}
	rs.rowsSinceSeal = 0
	rs.lastSeal = time.Now()
}

// chargeDisk accounts the encoder's new compressed bytes to the tenant.
func (r *run) chargeDisk(rs *rankState) error {
	n := rs.enc.BytesWritten()
	d := n - rs.diskAccounted
	rs.diskAccounted = n
	if !r.tenant.addDisk(d) {
		return &quotaDiskError{tenant: r.tenant.name}
	}
	return nil
}

// quotaDiskError marks a disk-quota kill so the session layer can report
// RejectQuotaDisk instead of a generic failure.
type quotaDiskError struct{ tenant string }

func (e *quotaDiskError) Error() string {
	return fmt.Sprintf("tenant %s over disk quota", e.tenant)
}

// advanceAcks runs the cross-rank ack barrier: it acks every sealed
// segment inside the run's maximal cross-rank-consistent cut, computed by
// store.ConsistentCut — the rule salvage applies after a crash — on the
// state a crash would leave: each rank's acked prefix is kept (base is its
// acked clock), its sealed segments follow, and it is intact only once the
// client finished and the record closed cleanly. A rank that never
// attached has no segments and base 0, as salvage sees a missing blob.
// Adding later segments only extends a consistent cut, so acked data
// survives every future crash. Caller holds the run's mu.
func (r *run) advanceAcks() {
	segs := make([][]store.SegmentSummary, r.ranks)
	base := make([]uint64, r.ranks)
	intact := make([]bool, r.ranks)
	for rank := range segs {
		if rs := r.rankState[rank]; rs != nil {
			segs[rank] = rs.segments
			base[rank] = rs.ackedClock
			intact[rank] = rs.finished && rs.closed && rs.err == nil
		}
	}
	keep, _ := store.ConsistentCut(segs, base, intact)
	for rank, rs := range r.rankState {
		k := keep[rank]
		if k == 0 {
			continue
		}
		for _, seg := range rs.segments[:k] {
			if seg.Clock > rs.ackedClock {
				rs.ackedClock = seg.Clock
			}
		}
		rs.acked = rs.ends[k-1]
		rs.segments, rs.ends = rs.segments[k:], rs.ends[k:]
	}
}

// maybeFinalize marks the run complete once every declared rank finished
// and fully acked. Caller holds the run's mu.
func (r *run) maybeFinalize() error {
	if r.finalized || len(r.rankState) != r.ranks {
		return nil
	}
	for _, rs := range r.rankState {
		if !rs.finished || !rs.closed || len(rs.segments) > 0 {
			return nil
		}
	}
	if err := r.st.Finalize(); err != nil {
		return err
	}
	r.finalized = true
	return nil
}
