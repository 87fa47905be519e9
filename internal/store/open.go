package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"cdcreplay/internal/core"
)

// Open reads and validates a run's manifest for replay: completeness, rank
// count, optional app name. Runs of crashed recordings fail with
// ErrIncomplete (salvage first, or read pinned via OpenRankIter).
func Open(st Store, wantApp string, wantRanks int) (Manifest, error) {
	m, err := st.Manifest()
	if err != nil {
		return m, err
	}
	if !m.Complete {
		return m, fmt.Errorf("%w (run cdcinspect salvage to recover a prefix)", ErrIncomplete)
	}
	if wantApp != "" && m.App != wantApp {
		return m, fmt.Errorf("store: record is of app %q, not %q", m.App, wantApp)
	}
	if wantRanks != 0 && m.Ranks != wantRanks {
		return m, fmt.Errorf("store: record has %d ranks, replay world has %d", m.Ranks, wantRanks)
	}
	for rank := 0; rank < m.Ranks; rank++ {
		r, err := st.OpenRank(rank)
		if err != nil {
			return m, fmt.Errorf("store: missing record for rank %d: %w", rank, err)
		}
		r.Close() //cdc:allow(errsink) existence probe only; decode errors surface from the rank's reader
	}
	return m, nil
}

// TolerableAtPin reports a decode failure that is exactly the epoch-pin
// boundary of an in-progress blob: the stream ran out mid-frame (or before
// the magic, for a pin at zero). On an incomplete run the blob arrives
// pinned to the last committed cut, and a pin inside a still-open gzip
// member (non-seekable backends) decodes every committed frame and then
// ends in this truncation, so readers of incomplete runs (the live feed,
// the storage conformance suite) treat it as a clean end of record. Any
// other cause — CRC mismatch, malformed payload, unknown frame kind — is
// corruption below the pin.
func TolerableAtPin(err error) bool {
	var te *core.TruncatedRecordError
	return errors.As(err, &te) && errors.Is(te.Cause, io.ErrUnexpectedEOF)
}

// OpenRankIter opens one rank's record as a streaming iterator: exactly
// SeekRankIter at epoch 0. On a seekable store with a committed chunk index
// and DecodeWorkers ≥ 1 the committed epochs decode as independently
// inflated segments on a worker pool (core.OpenRecordSegments); every
// other read is a serial decode front to back, so on a non-seekable store
// DecodeWorkers changes nothing. On incomplete runs the blob arrives
// pinned (see TolerableAtPin).
//
// The returned closer is the underlying blob: close the iterator first,
// then the blob (cdc.RecordReader-style errors.Join works).
func OpenRankIter(st Store, rank int, o core.DecoderOptions) (*core.RecordIter, io.Closer, error) {
	return SeekRankIter(st, rank, 0, o)
}

// SeekRankIter opens one rank's record positioned at the start of epoch —
// 0-based: epoch 0 is the record head, epoch k (1 ≤ k ≤ len(index)) begins
// just past the rank's k-th committed cut, so epoch len(index) is the tail
// written after the last commit. The first frame Next returns is the first
// frame of the target epoch, identically on every backend:
//
//   - a seekable store jumps straight to the cut's blob offset, and with
//     DecodeWorkers ≥ 1 the remaining epochs decode segment-parallel
//     (core.OpenRecordSegmentsAt);
//   - a non-seekable store decodes serially from byte zero and discards
//     frames until epoch flush marks have passed — same frame stream,
//     linear cost.
//
// Callsite-name frames before the seek point are replayed only on the skip
// path, so names resolve best-effort after a seek. On incomplete runs the
// blob arrives pinned, so a seek target can only name committed epochs.
func SeekRankIter(st Store, rank, epoch int, o core.DecoderOptions) (*core.RecordIter, io.Closer, error) {
	if epoch < 0 {
		return nil, nil, fmt.Errorf("store: negative seek epoch %d", epoch)
	}
	// The chunk index locates a seek target and splits a seekable blob into
	// segments. A serial read from the head needs neither, so it skips the
	// manifest read.
	var idx []IndexEntry
	if epoch > 0 || (o.DecodeWorkers > 0 && st.Seekable()) {
		m, err := st.Manifest()
		if err != nil {
			return nil, nil, err
		}
		idx = m.RankIndex(rank)
		if epoch > len(idx) {
			return nil, nil, fmt.Errorf("store: rank %d has %d committed epoch(s), cannot seek to epoch %d", rank, len(idx), epoch)
		}
	}
	r, err := st.OpenRank(rank)
	if err != nil {
		return nil, nil, err
	}
	if st.Seekable() && len(idx) > 0 {
		var start int64
		if epoch > 0 {
			start = idx[epoch-1].Offset
		}
		cuts := make([]int64, 0, len(idx)-epoch)
		for _, e := range idx[epoch:] {
			cuts = append(cuts, e.Offset)
		}
		it, err := core.OpenRecordSegmentsAt(r, r.Size(), start, cuts, o)
		if err != nil {
			r.Close() //cdc:allow(errsink) open failed; the open error is the one to report
			return nil, nil, err
		}
		return it, r, nil
	}
	it, err := core.OpenRecord(r)
	if err != nil {
		r.Close() //cdc:allow(errsink) open failed; the open error is the one to report
		return nil, nil, err
	}
	for it.FlushPoints() < uint64(epoch) {
		if _, err := it.Next(); err != nil {
			it.Close() //cdc:allow(errsink) best-effort cleanup; the scan error is already propagating
			r.Close()  //cdc:allow(errsink) best-effort cleanup; the scan error is already propagating
			if err == io.EOF {
				err = fmt.Errorf("store: rank %d record ended before epoch %d", rank, epoch)
			}
			return nil, nil, err
		}
	}
	return it, r, nil
}

// RankFrontier scans one rank's full blob (torn tail included) and reports
// its logical-event frontier: the number of logical events (each matched
// receive counts one, each unmatched test counts one — an aggregated
// failed-test row of count n counts n) and the largest flush-mark clock.
// The ingest daemon states this frontier as the resume offset after a
// restart. A rank that never wrote is an empty frontier.
func RankFrontier(st Store, rank int) (events, clock uint64, err error) {
	r, err := st.RawRank(rank)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer r.Close() //cdc:allow(errsink) read-side close; scan errors surface from Next
	if r.Size() == 0 {
		// A registered-but-unwritten blob (crash right after AppendRank
		// opened it) is an empty frontier, same as a missing one.
		return 0, 0, nil
	}
	it, err := core.OpenRecord(r)
	if err != nil {
		return 0, 0, err
	}
	defer it.Close() //cdc:allow(errsink) read-side close; scan errors surface from Next
	for {
		fr, err := it.Next()
		if err == io.EOF {
			return events, clock, nil
		}
		if err != nil {
			return events, clock, err
		}
		if fr.Chunk != nil {
			events += fr.Chunk.NumMatched
			for _, run := range fr.Chunk.Unmatched {
				events += run.Count
			}
		}
		if fr.Flush && fr.FlushClock > clock {
			clock = fr.FlushClock
		}
	}
}
