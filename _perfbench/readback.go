package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cdcreplay/cdc"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/workload"
)

// readBack reads every rank of st in full through cdc.OpenRankRecord and
// returns the matched events seen and a SHA-256 digest of the frame
// sequence (kind, callsite, events, moves, payload size, flush clock). When
// tracing it times each call into the reader and adds them to
// decode.{open,next,close}.ns, one decode span per rank under parent.
func readBack(st cdc.Store, ranks int, tr *tracer, parent uint64, opts ...cdc.Option) (events uint64, digest [32]byte, err error) {
	h := sha256.New()
	var rec [8 * 6]byte
	for rank := 0; rank < ranks; rank++ {
		sp := tr.start("decode.rank", parent)
		t0 := now()
		rd, err := cdc.OpenRankRecord(st, rank, opts...)
		t1 := now()
		openNs := t1 - t0
		if err != nil {
			return 0, digest, fmt.Errorf("open rank %d: %w", rank, err)
		}
		var nextNs int64
		for {
			fr, err := rd.Next()
			t2 := now()
			nextNs += t2 - t1
			t1 = t2
			if err == io.EOF {
				break
			}
			if err != nil {
				rd.Close()
				return 0, digest, fmt.Errorf("decode rank %d: %w", rank, err)
			}
			events += fr.Events
			binary.LittleEndian.PutUint64(rec[0:], uint64(fr.Kind))
			binary.LittleEndian.PutUint64(rec[8:], fr.Callsite)
			binary.LittleEndian.PutUint64(rec[16:], fr.Events)
			binary.LittleEndian.PutUint64(rec[24:], uint64(fr.Moves))
			binary.LittleEndian.PutUint64(rec[32:], uint64(fr.Bytes))
			binary.LittleEndian.PutUint64(rec[40:], fr.FlushClock)
			h.Write(rec[:])
			t1 = now()
		}
		frames := rd.Frames()
		err = rd.Close()
		t3 := now()
		sp.end()
		if err != nil {
			return 0, digest, fmt.Errorf("close rank %d: %w", rank, err)
		}
		if tr != nil {
			tr.add("decode.open.ns", float64(openNs))
			tr.add("decode.next.ns", float64(nextNs))
			tr.add("decode.close.ns", float64(t3-t1))
			tr.add("decode.frames", float64(frames))
		}
	}
	copy(digest[:], h.Sum(nil))
	return events, digest, nil
}

// readPasses is how many full read-backs (and feed replays) one
// repetition makes; decode_s and, for codec and ingest, replay_s are the
// median pass. Read-backs are short, so one pass alone is noisy.
const readPasses = 9

// decodeCalls are the timed reader calls of a read-back: with the
// remainder they add up to decode_s.
var decodeCalls = []string{"decode.open.ns", "decode.next.ns", "decode.close.ns"}

// timedReadBack runs readPasses read-backs of every rank in stores (one
// rank each when ranks is 1 per store) and returns the matched events of
// one pass and the median pass CPU seconds. Every pass must decode
// the same frame digest. Only the first pass is traced, so per-layer
// decode sums are per read-back; bytesIn is the record size it reads.
func timedReadBack(stores []cdc.Store, ranks int, tr *tracer, parent uint64, bytesIn float64, opts ...cdc.Option) (events uint64, digest [32]byte, secs float64, err error) {
	var times []float64
	for pass := 0; pass < readPasses; pass++ {
		rt := tr
		if pass > 0 {
			rt = nil
		}
		callsBefore := rt.sumOf(decodeCalls...)
		settle()
		sp := rt.start("decode", parent)
		c0, t0 := cpuNow(), now()
		var ev uint64
		h := sha256.New()
		for _, st := range stores {
			n, d, err := readBack(st, ranks, rt, sp.id, opts...)
			if err != nil {
				return 0, digest, 0, err
			}
			ev += n
			h.Write(d[:])
		}
		cpu, ns := cpuSince(c0), now()-t0
		sp.end()
		var dg [32]byte
		copy(dg[:], h.Sum(nil))
		if pass == 0 {
			events, digest = ev, dg
		} else if ev != events || dg != digest {
			return 0, digest, 0, fmt.Errorf("pass %d decoded %d events (digest %x), pass 0 %d (%x)", pass, ev, dg[:8], events, digest[:8])
		}
		if rt != nil {
			rt.add("wall.decode.ns", float64(ns))
			rt.add("remainder.decode.ns", float64(ns)-(rt.sumOf(decodeCalls...)-callsBefore))
			rt.add("decode.bytes_in", bytesIn)
		}
		times = append(times, cpu)
	}
	return events, digest, median(times), nil
}

// timedFeedBack replays every store readPasses times through feedBack and
// returns the matched events released by one pass and the median pass
// CPU seconds. Only the first pass is traced.
func timedFeedBack(stores []cdc.Store, ranks, workers int, tr *tracer, parent uint64) (events uint64, secs float64, err error) {
	var times []float64
	for pass := 0; pass < readPasses; pass++ {
		rt := tr
		if pass > 0 {
			rt = nil
		}
		settle()
		sp := rt.start("replay.feed", parent)
		c0 := cpuNow()
		var ev uint64
		for _, st := range stores {
			n, err := feedBack(st, ranks, workers, rt, sp.id)
			if err != nil {
				return 0, 0, err
			}
			ev += n
		}
		times = append(times, cpuSince(c0))
		sp.end()
		if pass == 0 {
			events = ev
		} else if ev != events {
			return 0, 0, fmt.Errorf("pass %d released %d events, pass 0 %d", pass, ev, events)
		}
	}
	return events, median(times), nil
}

// feedBack plays every rank of st through cdc.OpenFeed at the unpaced
// rate — the replay stream for workloads that have no application to
// drive cdc.Replay — and returns the matched events released.
func feedBack(st cdc.Store, ranks, workers int, tr *tracer, parent uint64) (events uint64, err error) {
	for rank := 0; rank < ranks; rank++ {
		sp := tr.start("replay.feed.rank", parent)
		f, err := cdc.OpenFeed(cdc.WithStore(st), cdc.WithFeedRank(rank),
			cdc.WithFeedRate(cdc.FeedRateMax), cdc.WithFeedPaused(), cdc.WithDecodeWorkers(workers))
		if err != nil {
			return 0, fmt.Errorf("open feed rank %d: %w", rank, err)
		}
		ev, fr, err := drainFeed(f)
		err = errors.Join(err, f.Close())
		if d := sp.end(); tr != nil {
			tr.add("replay.feed.ns", float64(d))
			tr.add("replay.feed.frames", float64(fr))
		}
		if err != nil {
			return 0, fmt.Errorf("feed rank %d: %w", rank, err)
		}
		events += ev
	}
	return events, nil
}

func drainFeed(f *cdc.Feed) (events, frames uint64, err error) {
	sub, err := f.Subscribe()
	if err != nil {
		return 0, 0, err
	}
	defer sub.Close()
	if err := f.Resume(); err != nil {
		return 0, 0, err
	}
	for {
		ev, ok := sub.Recv()
		if !ok {
			return events, frames, errors.New("feed closed before its end event")
		}
		switch ev.Kind {
		case cdc.FeedEnd:
			if ev.Err != "" {
				return events, frames, errors.New(ev.Err)
			}
			return events, frames, nil
		case cdc.FeedGap:
			return events, frames, fmt.Errorf("feed dropped %d releases", ev.Dropped)
		case cdc.FeedFrame, cdc.FeedFlush:
			frames++
			if ev.Frame != nil && ev.Frame.Chunk != nil {
				events += ev.Frame.Chunk.NumMatched
			}
		}
	}
}

// streamRows generates one rank's seeded event rows: a workload.Stream
// (senders, disorder window 5, ~5% unmatched tests, multi-completion
// groups) split over two callsites, switching only at group boundaries so
// a with_next group never straddles callsites. Each callsite's first row
// carries its name.
func streamRows(events, senders int, seed int64) []ingestwire.Row {
	evs := workload.Stream(workload.StreamParams{
		Events:        events,
		Senders:       senders,
		Disorder:      5,
		UnmatchedProb: 0.05,
		GroupProb:     0.15,
		Seed:          seed,
	})
	names := [3]string{"", "recv@solver.c:42", "wait@halo.c:7"}
	named := [3]bool{}
	rows := make([]ingestwire.Row, 0, len(evs))
	cs := uint64(1)
	for _, ev := range evs {
		row := ingestwire.Row{Callsite: cs, Ev: ev}
		if !named[cs] {
			row.Name = names[cs]
			named[cs] = true
		}
		rows = append(rows, row)
		if !ev.Flag || !ev.WithNext {
			cs = 3 - cs
		}
	}
	return rows
}

// rowCounts is the matched events, unmatched tests and logical events
// (ingestwire.Row.Weight) of rows.
func rowCounts(rows []ingestwire.Row) (matched, unmatched, weight uint64) {
	for _, r := range rows {
		if r.Ev.Flag {
			matched++
		} else {
			unmatched += r.Ev.Count
		}
		weight += r.Weight()
	}
	return matched, unmatched, weight
}
