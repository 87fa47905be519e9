package dst

import (
	"bytes"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
)

// DeterministicRecord runs one record phase of the named workload under the
// fully deterministic round-robin schedule (no jitter, no policy RNG) and
// returns each rank's encoded record stream. Within one source tree the
// bytes are stable across process runs — the property golden-fixture
// regeneration needs (internal/core golden tests). Callsite IDs hash
// file:line, so editing workload source legitimately changes the bytes;
// committed fixtures keep decoding regardless.
func DeterministicRecord(workloadName string, seed int64, short bool, opts core.EncoderOptions) ([][]byte, error) {
	wl, err := workloadFor(workloadName)
	if err != nil {
		return nil, err
	}
	app := wl.app(short, seed)
	seq := newSequencer(wl.ranks, lrgPolicy{})
	w := simmpi.NewWorld(wl.ranks, simmpi.Options{Sequencer: seq, Delivery: deliveryFor("", 0, 0)})
	bufs := make([]*bytes.Buffer, wl.ranks)
	err = w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bufs[rank] = &bytes.Buffer{}
		enc, err := core.NewEncoder(bufs[rank], opts)
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), enc, recOpts())
		aerr := app(rec)
		cerr := rec.Close()
		if aerr != nil {
			return aerr
		}
		return cerr
	})
	if err != nil {
		return nil, err
	}
	if _, _, fail := seq.results(); fail != nil {
		return nil, fail
	}
	out := make([][]byte, wl.ranks)
	for i, b := range bufs {
		out[i] = b.Bytes()
	}
	return out, nil
}

// DeterministicRecordTo is DeterministicRecord writing through a storage
// backend instead of plain buffers: the same deterministic schedule drives
// each rank's encoder into st.CreateRank writers, every flush point
// commits an epoch-index entry, and the run is finalized. It backs the
// storage-conformance suite (one fixed event stream, any backend) and the
// dirstore byte-compatibility golden test — on a non-seekable backend the
// blob bytes must equal DeterministicRecord's buffers exactly.
func DeterministicRecordTo(workloadName string, seed int64, short bool, opts core.EncoderOptions, st store.Store) error {
	return DeterministicRecordToOpts(workloadName, seed, short, opts, recOpts(), st)
}

// DeterministicRecordToOpts is DeterministicRecordTo with an explicit
// record-layer configuration, for callers that need a different flush
// cadence than the golden fixtures — denser flushes commit more epoch
// boundaries, which the feed-seek sweep (P6) wants even on the short
// workloads.
func DeterministicRecordToOpts(workloadName string, seed int64, short bool, opts core.EncoderOptions, ropts record.Options, st store.Store) error {
	wl, err := workloadFor(workloadName)
	if err != nil {
		return err
	}
	if err := st.Create(store.Manifest{Ranks: wl.ranks, App: "dst-" + wl.name}); err != nil {
		return err
	}
	app := wl.app(short, seed)
	seq := newSequencer(wl.ranks, lrgPolicy{})
	w := simmpi.NewWorld(wl.ranks, simmpi.Options{Sequencer: seq, Delivery: deliveryFor("", 0, 0)})
	err = w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bw, err := st.CreateRank(rank)
		if err != nil {
			return err
		}
		rankOpts := opts
		rankOpts.SeekableCuts = st.Seekable()
		rankOpts.OnFlushPoint = func(clock, events uint64, offset int64) error {
			return bw.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
		}
		enc, err := core.NewEncoder(bw, rankOpts)
		if err != nil {
			bw.Close()
			return err
		}
		rec := record.New(lamport.Wrap(mpi), enc, ropts)
		aerr := app(rec)
		cerr := rec.Close()
		werr := bw.Close()
		if aerr != nil {
			return aerr
		}
		if cerr != nil {
			return cerr
		}
		return werr
	})
	if err != nil {
		return err
	}
	if _, _, fail := seq.results(); fail != nil {
		return fail
	}
	return st.Finalize()
}
