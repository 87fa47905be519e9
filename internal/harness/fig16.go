package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
)

// Fig16Point is one (process count, mode) measurement.
type Fig16Point struct {
	Ranks        int
	Mode         string // "none", "gzip", "CDC"
	TracksPerSec float64
}

// Fig16Result reproduces paper Fig. 16: weak-scaling MCB throughput
// without recording, with gzip recording and with CDC recording. The paper
// reports 13.1–25.5% CDC overhead and a 4.6–13.9% CDC-vs-gzip gap.
type Fig16Result struct {
	Points []Fig16Point
	// OverheadCDC and OverheadGzip are percentage slowdowns vs "none",
	// indexed by rank count.
	OverheadCDC  map[int]float64
	OverheadGzip map[int]float64
}

// fig16Modes builds the per-rank tool stack for each mode.
func fig16Stack(mode string, mpi simmpi.MPI) (simmpi.MPI, func() error) {
	switch mode {
	case "gzip":
		rec := record.New(lamport.Wrap(mpi), baseline.NewGzip(), record.Options{})
		return rec, rec.Close
	case "CDC":
		enc, _ := core.NewEncoder(io.Discard, core.EncoderOptions{OmitSenderColumn: true})
		rec := record.New(lamport.Wrap(mpi), enc, record.Options{})
		return rec, rec.Close
	default:
		return mpi, func() error { return nil }
	}
}

// runMCBMode runs MCB at the given scale under one recording mode and
// returns the global tracks/sec.
func runMCBMode(cfg *Config, ranks int, mode string, params mcb.Params) (float64, error) {
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed + int64(ranks), MaxJitter: 8})
	var mu sync.Mutex
	var tracks float64
	start := time.Now()
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		stack, closeFn := fig16Stack(mode, mpi)
		res, rerr := mcb.Run(stack, params)
		if cerr := closeFn(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		mu.Lock()
		if tracks == 0 {
			tracks = res.GlobalTracks
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return tracks / time.Since(start).Seconds(), nil
}

// Fig16 measures recording overhead under weak scaling (constant particles
// per process, like the paper's 4000/process).
func Fig16(cfg Config) (*Fig16Result, error) {
	cfg.fill()
	var scales []int
	if cfg.Full {
		scales = []int{4, 8, 16, 32, 64}
	} else {
		scales = []int{4, 8, 16}
	}
	// TrackWork sets the compute/communication ratio. The paper's MCB is
	// compute-heavy (258 receive events/sec/process against full-core
	// Monte Carlo tracking), so the per-segment kernel here is sized to
	// keep recording work a modest fraction of tracking work, as on
	// Catalyst.
	params := mcb.Params{
		Particles: cfg.pick(200, 600),
		TimeSteps: 2,
		Seed:      cfg.Seed + 16,
		TrackWork: 600,
	}
	res := &Fig16Result{
		OverheadCDC:  map[int]float64{},
		OverheadGzip: map[int]float64{},
	}
	cfg.printf("Figure 16: MCB weak-scaling throughput (tracks/sec), %d particles/process\n", params.Particles)
	for _, ranks := range scales {
		base := 0.0
		for _, mode := range []string{"none", "gzip", "CDC"} {
			tps, err := runMCBMode(&cfg, ranks, mode, params)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig16Point{Ranks: ranks, Mode: mode, TracksPerSec: tps})
			if mode == "none" {
				base = tps
			}
			overhead := 0.0
			if base > 0 {
				overhead = 100 * (base - tps) / base
			}
			switch mode {
			case "gzip":
				res.OverheadGzip[ranks] = overhead
			case "CDC":
				res.OverheadCDC[ranks] = overhead
			}
			cfg.printf("  %4d procs  %-5s %12.0f tracks/sec  (overhead %5.1f%%)\n", ranks, mode, tps, overhead)
		}
	}
	cfg.printf("  (paper: CDC overhead 13.1–25.5%%, CDC vs gzip gap 4.6–13.9%%)\n")
	return res, nil
}
