package harness

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
)

// QueueResult reproduces the §6.2 observe-queue throughput measurement:
// the CDC thread must drain events faster than the application produces
// them, so the bounded queue never blocks the main thread.
type QueueResult struct {
	EnqueueRate float64 // events/sec/process produced by the application
	DrainRate   float64 // events/sec/process the CDC goroutine can absorb
	Blocked     uint64  // Enqueue calls that found the queue full
}

// QueueRates measures both rates on a live MCB run.
func QueueRates(cfg Config) (*QueueResult, error) {
	cfg.fill()
	ranks := cfg.pick(8, 24)
	params := mcb.Params{Particles: cfg.pick(200, 800), TimeSteps: 2, Seed: cfg.Seed + 18}
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed + 18, MaxJitter: 8})
	var mu sync.Mutex
	res := &QueueResult{}
	var produced uint64
	var appTime, drainTime time.Duration
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		enc, _ := core.NewEncoder(&bytes.Buffer{}, core.EncoderOptions{OmitSenderColumn: true})
		rec := record.New(lamport.Wrap(mpi), enc, record.Options{})
		start := time.Now()
		_, rerr := mcb.Run(rec, params)
		elapsed := time.Since(start)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		st := rec.Stats()
		mu.Lock()
		produced += st.Enqueued
		res.Blocked += st.EnqueueBlocked
		appTime += elapsed
		drainTime += st.DrainDuration
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if appTime > 0 {
		res.EnqueueRate = float64(produced) / appTime.Seconds()
	}
	if drainTime > 0 {
		res.DrainRate = float64(produced) / drainTime.Seconds()
	}

	cfg.printf("Observe-queue rates (§6.2): enqueue %.0f events/sec/proc, drain capacity %.0f events/sec/proc, blocked %d\n",
		res.EnqueueRate, res.DrainRate, res.Blocked)
	cfg.printf("  (paper: recording speed 331K events/sec/proc vs production 258 events/sec/proc)\n")
	return res, nil
}

// PiggybackResult reproduces the §6.2 clock-piggybacking overhead
// measurement (paper: 1.18%).
type PiggybackResult struct {
	PlainTracksPerSec     float64
	PiggybackTracksPerSec float64
	OverheadPercent       float64
	// ByteOverheadPercent is the deterministic complement to the noisy
	// wall-clock number: the fraction of all sent bytes that are
	// piggyback headers (8 bytes × messages / total bytes).
	ByteOverheadPercent float64
}

// PiggybackOverhead compares MCB with and without the 8-byte clock layer
// (no recording in either case).
func PiggybackOverhead(cfg Config) (*PiggybackResult, error) {
	cfg.fill()
	ranks := cfg.pick(8, 24)
	params := mcb.Params{Particles: cfg.pick(300, 1000), TimeSteps: 2, Seed: cfg.Seed + 19, TrackWork: 600}
	run := func(withClock bool) (float64, simmpi.Traffic, error) {
		w := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed + 19, MaxJitter: 8})
		var mu sync.Mutex
		var tracks float64
		var traffic simmpi.Traffic
		start := time.Now()
		err := w.Run(func(mpi simmpi.MPI) error {
			var stack simmpi.MPI = mpi
			if withClock {
				stack = lamport.Wrap(mpi)
			}
			res, err := mcb.Run(stack, params)
			if err != nil {
				return err
			}
			tr := mpi.(*simmpi.Comm).Traffic()
			mu.Lock()
			if tracks == 0 {
				tracks = res.GlobalTracks
			}
			traffic.SentMessages += tr.SentMessages
			traffic.SentBytes += tr.SentBytes
			mu.Unlock()
			return nil
		})
		if err != nil {
			return 0, traffic, err
		}
		return tracks / time.Since(start).Seconds(), traffic, nil
	}
	res := &PiggybackResult{}
	var err error
	if res.PlainTracksPerSec, _, err = run(false); err != nil {
		return nil, err
	}
	var pbTraffic simmpi.Traffic
	if res.PiggybackTracksPerSec, pbTraffic, err = run(true); err != nil {
		return nil, err
	}
	if res.PlainTracksPerSec > 0 {
		res.OverheadPercent = 100 * (res.PlainTracksPerSec - res.PiggybackTracksPerSec) / res.PlainTracksPerSec
	}
	if pbTraffic.SentBytes > 0 {
		res.ByteOverheadPercent = 100 * float64(8*pbTraffic.SentMessages) / float64(pbTraffic.SentBytes)
	}
	cfg.printf("Clock piggybacking overhead (§6.2): plain %.0f vs piggybacked %.0f tracks/sec → %.2f%% wall-clock (noisy)\n",
		res.PlainTracksPerSec, res.PiggybackTracksPerSec, res.OverheadPercent)
	cfg.printf("  piggyback bytes: %.2f%% of all sent bytes (8 B on %d messages; paper reports 1.18%% runtime)\n",
		res.ByteOverheadPercent, pbTraffic.SentMessages)
	return res, nil
}

// ReplayResult validates Theorems 1–2 end to end on MCB.
type ReplayResult struct {
	Ranks int
	// TalliesMatch reports whether every rank's replayed tally equals the
	// recorded one bit for bit.
	TalliesMatch bool
	// MaxAbsDiff is the largest per-rank tally difference (0 when
	// matching).
	MaxAbsDiff float64
	// RecordBytes is the total record size used for the replay.
	RecordBytes int64
}

// ReplayValidation records an MCB run, replays it on a differently-seeded
// network, and compares the order-sensitive tallies.
func ReplayValidation(cfg Config) (*ReplayResult, error) {
	cfg.fill()
	ranks := cfg.pick(8, 24)
	params := mcb.Params{Particles: cfg.pick(100, 400), TimeSteps: 2, Seed: cfg.Seed + 20, CrossProb: 0.4}

	files := make([][]byte, ranks)
	tallies := make([]float64, ranks)
	var mu sync.Mutex
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed + 20, MaxJitter: 8})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{})
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), enc, record.Options{})
		r, rerr := mcb.Run(rec, params)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		mu.Lock()
		files[rank] = buf.Bytes()
		tallies[rank] = r.Tally
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &ReplayResult{Ranks: ranks, TalliesMatch: true}
	for _, f := range files {
		res.RecordBytes += int64(len(f))
	}
	w2 := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed + 999, MaxJitter: 8})
	err = w2.RunRanked(func(rank int, mpi simmpi.MPI) error {
		// Streaming replay: a prescan pass summarizes the record, then the
		// replayer pulls chunks lazily — the record is never materialized.
		rp, err := replay.Open(lamport.WrapManual(mpi), replay.RecordBytes(files[rank]), replay.Options{})
		if err != nil {
			return err
		}
		defer rp.Close() //cdc:allow(errsink) in-memory source; decode errors surface during replay
		r, rerr := mcb.Run(rp, params)
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		if verr := rp.Verify(); verr != nil {
			return fmt.Errorf("rank %d: %w", rank, verr)
		}
		mu.Lock()
		if d := math.Abs(r.Tally - tallies[rank]); d > res.MaxAbsDiff {
			res.MaxAbsDiff = d
		}
		if r.Tally != tallies[rank] {
			res.TalliesMatch = false
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	cfg.printf("Replay validation (Theorems 1–2): %d ranks, record %s\n", ranks, human(res.RecordBytes))
	cfg.printf("  tallies bit-identical: %v (max |diff| %g)\n", res.TalliesMatch, res.MaxAbsDiff)
	return res, nil
}
