package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"cdcreplay/cdc"
	"cdcreplay/internal/core"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/shardstore"
)

// codecRecordCalls are the timed calls on codec's recording goroutine:
// with the remainder they add up to record_s. Store writes run on the
// encoder's commit goroutine and commits inside FlushAll/Close, so neither
// is listed.
var codecRecordCalls = []string{"store.create.ns", "store.open_writer.ns", "encode.new.ns", "encode.observe.ns",
	"encode.flushall.ns", "encode.close.ns", "store.close.ns", "store.finalize.ns"}

// codecBench is the codec workload: seeded rank streams encoded straight
// through core.NewEncoder into the sharded layout, then read back.
type codecBench struct {
	cfg         config
	dir         string
	ranks       int
	events      int
	epochEvents int
	senders     int
	rows        [][]ingestwire.Row
	matched     uint64
	unmatched   uint64
	digest      *[32]byte
	bytes       int64
	props       map[string]any
}

func newCodec(cfg config, dir string) (bench, error) {
	b := &codecBench{cfg: cfg, dir: dir, ranks: 4, events: 250_000, epochEvents: 50_000, senders: 8}
	if cfg.scale == "tiny" {
		b.ranks, b.events, b.epochEvents = 2, 3000, 500
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b.rows = b.generate()
	for _, rows := range b.rows {
		m, u, _ := rowCounts(rows)
		b.matched += m
		b.unmatched += u
	}
	return b, nil
}

// generate makes every rank's rows from the seed.
func (b *codecBench) generate() [][]ingestwire.Row {
	rows := make([][]ingestwire.Row, b.ranks)
	for rank := range rows {
		rows[rank] = streamRows(b.events, b.senders, b.cfg.seed*1_000_003+int64(rank))
	}
	return rows
}

func (b *codecBench) close() error { return os.RemoveAll(b.dir) }

func (b *codecBench) inputs() map[string]any { return b.props }

func (b *codecBench) rep(tr *tracer, n int) repOut {
	out := repOut{values: make(map[string]float64)}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	root := tr.start("codec.rep", 0)
	defer root.end()
	dir := filepath.Join(b.dir, "rep"+strconv.Itoa(n))
	defer os.RemoveAll(dir)

	// Plain: the event source alone.
	settle()
	c0 := cpuNow()
	regen := b.generate()
	out.values["plain_s"] = cpuSince(c0)
	for rank := range regen {
		if len(regen[rank]) != len(b.rows[rank]) {
			out.err = fmt.Errorf("rank %d: regenerated %d rows, set-up made %d", rank, len(regen[rank]), len(b.rows[rank]))
			return out
		}
	}

	probe := newStoreProbe(tr)
	st := probedStore{Store: shardstore.New(dir), p: probe}
	callsBefore := tr.sumOf(codecRecordCalls...)
	settle()
	sp := tr.start("codec.record", root.id)
	c0, t0 := cpuNow(), now()
	stats, recBytes, err := b.record(st, tr, reg, sp.id)
	recordCPU, recordNs := cpuSince(c0), now()-t0
	sp.end()
	if err != nil {
		out.err = fmt.Errorf("record: %w", err)
		return out
	}
	out.values["record_s"] = recordCPU
	if stats.MatchedEvents != b.matched {
		out.err = fmt.Errorf("record: encoder saw %d matched events, offered %d", stats.MatchedEvents, b.matched)
		return out
	}
	if b.bytes != 0 && recBytes != b.bytes {
		out.err = fmt.Errorf("record: %d bytes, an earlier repetition wrote %d", recBytes, b.bytes)
		return out
	}
	b.bytes = recBytes
	out.values["bytes_per_event"] = float64(recBytes) / float64(b.matched)
	if tr != nil {
		tr.add("wall.record.ns", float64(recordNs))
		tr.add("remainder.record.ns", float64(recordNs)-(tr.sumOf(codecRecordCalls...)-callsBefore))
	}

	// Read back in full, then replay through the feed.
	opts := []cdc.Option{cdc.WithDecodeWorkers(b.cfg.workers)}
	if reg != nil {
		opts = append(opts, cdc.WithObs(reg))
	}
	stores := []cdc.Store{st}
	events, digest, secs, err := timedReadBack(stores, b.ranks, tr, root.id, float64(recBytes), opts...)
	if err != nil {
		out.err = fmt.Errorf("decode: %w", err)
		return out
	}
	if events != b.matched {
		out.err = fmt.Errorf("decode: read %d events, offered %d", events, b.matched)
		return out
	}
	if b.digest == nil {
		b.digest = &digest
	} else if digest != *b.digest {
		out.err = fmt.Errorf("decode: frame digest %x differs from an earlier repetition's %x", digest[:8], b.digest[:8])
		return out
	}
	out.values["decode_s"] = secs
	events, secs, err = timedFeedBack(stores, b.ranks, b.cfg.workers, tr, root.id)
	if err != nil {
		out.err = fmt.Errorf("replay: %w", err)
		return out
	}
	if events != b.matched {
		out.err = fmt.Errorf("replay: released %d events, offered %d", events, b.matched)
		return out
	}
	out.values["replay_s"] = secs
	if tr != nil {
		tr.addObs(reg.Snapshot())
	}

	b.props = map[string]any{
		"ranks":                b.ranks,
		"events_per_rank":      b.events,
		"senders":              b.senders,
		"epoch_events":         b.epochEvents,
		"encode_workers":       b.cfg.workers,
		"decode_workers":       b.cfg.workers,
		"matched_events":       b.matched,
		"rows":                 stats.Rows,
		"permuted_share_pct":   stats.PermutationPercent(),
		"unmatched_test_share": float64(b.unmatched) / float64(b.unmatched+b.matched),
		"messages":             b.matched,
		"commits":              probe.commits.Load(),
		"record_bytes":         recBytes,
		"frame_digest":         fmt.Sprintf("%x", b.digest[:]),
		"layout":               st.Layout(),
	}
	return out
}

// record encodes every rank, one after another on this goroutine, and
// returns the summed encoder stats and the record size. When tracing,
// every call into the encoder and the store is timed.
func (b *codecBench) record(st probedStore, tr *tracer, reg *obs.Registry, parent uint64) (core.Stats, int64, error) {
	var total core.Stats
	var size int64
	if err := st.Create(store.Manifest{Ranks: b.ranks, App: "codec"}); err != nil {
		return total, 0, err
	}
	for rank := 0; rank < b.ranks; rank++ {
		sp := tr.start("codec.record.rank", parent)
		st.p.setParent(rank, sp.id)
		stats, n, err := b.recordRank(st, rank, tr, reg)
		sp.end()
		if err != nil {
			return total, 0, fmt.Errorf("rank %d: %w", rank, err)
		}
		size += n
		total.Rows += stats.Rows
		total.MatchedEvents += stats.MatchedEvents
		total.UnmatchedTests += stats.UnmatchedTests
		total.PermutedMessages += stats.PermutedMessages
		total.Chunks += stats.Chunks
		total.FlushPoints += stats.FlushPoints
	}
	return total, size, st.Finalize()
}

func (b *codecBench) recordRank(st probedStore, rank int, tr *tracer, reg *obs.Registry) (core.Stats, int64, error) {
	w, err := st.CreateRank(rank)
	if err != nil {
		return core.Stats{}, 0, err
	}
	t0 := now()
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		EncodeWorkers: b.cfg.workers,
		SeekableCuts:  st.Seekable(),
		Obs:           reg,
		OnFlushPoint: func(clock, events uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
		},
	})
	t1 := now()
	if err != nil {
		w.Close()
		return core.Stats{}, 0, err
	}
	var inEpoch, clock uint64
	var flushNs int64
	for _, row := range b.rows[rank] {
		if row.Name != "" {
			if err := enc.RegisterCallsite(row.Callsite, row.Name); err != nil {
				w.Close()
				return core.Stats{}, 0, err
			}
		}
		if err := enc.Observe(row.Callsite, row.Ev); err != nil {
			w.Close()
			return core.Stats{}, 0, err
		}
		if row.Ev.Flag {
			inEpoch++
			clock = row.Ev.Clock
		}
		// One seekable cut per epoch, at a group boundary so the cut is
		// a consistent flush point.
		if inEpoch >= uint64(b.epochEvents) && !(row.Ev.Flag && row.Ev.WithNext) {
			t := now()
			if err := enc.FlushAll(clock); err != nil {
				w.Close()
				return core.Stats{}, 0, err
			}
			flushNs += now() - t
			inEpoch = 0
		}
	}
	t2 := now()
	closeErr := enc.Close()
	t3 := now()
	if err := errors.Join(closeErr, w.Close()); err != nil {
		return core.Stats{}, 0, err
	}
	if tr != nil {
		tr.add("encode.new.ns", float64(t1-t0))
		// The Observe loop's time, less the FlushAll calls made in it.
		tr.add("encode.observe.ns", float64(t2-t1-flushNs))
		tr.add("encode.flushall.ns", float64(flushNs))
		tr.add("encode.close.ns", float64(t3-t2))
	}
	return enc.Stats(), enc.BytesWritten(), nil
}
