package harness

import (
	"fmt"
	"io"
	"sync"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/jacobi"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
)

// Fig17Result reproduces paper Fig. 17: record sizes under hidden
// deterministic communication (Jacobi/Poisson halo exchange with
// MPI_ANY_SOURCE). The paper reports gzip 91 MB vs CDC 2 MB (2.2%).
type Fig17Result struct {
	Ranks      int
	Iterations int
	Events     uint64
	GzipBytes  int64
	CDCBytes   int64
	// CDCPercent is CDC's size as a percentage of gzip's.
	CDCPercent float64
}

// Fig17 records the Jacobi solver with gzip and CDC backends.
func Fig17(cfg Config) (*Fig17Result, error) {
	cfg.fill()
	ranks := cfg.pick(16, 64)
	params := jacobi.Params{
		Rows:       8,
		Cols:       16,
		Iterations: cfg.pick(250, 1000), // paper: 1K iterations
	}

	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed + 17, MaxJitter: 6})
	rows := make([][]Row, ranks)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		cap := newCapture()
		rec := record.New(lamport.Wrap(mpi), cap, record.Options{})
		_, rerr := jacobi.Run(rec, params)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		mu.Lock()
		rows[rank] = cap.rows
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig17Result{Ranks: ranks, Iterations: params.Iterations}
	for _, rankRows := range rows {
		for _, r := range rankRows {
			if r.Ev.Flag {
				res.Events++
			}
		}
		gz, err := feed(baseline.NewGzip(), rankRows)
		if err != nil {
			return nil, err
		}
		res.GzipBytes += gz
		enc, _ := core.NewEncoder(io.Discard, core.EncoderOptions{OmitSenderColumn: true})
		cd, err := feed(enc, rankRows)
		if err != nil {
			return nil, err
		}
		res.CDCBytes += cd
	}
	if res.GzipBytes > 0 {
		res.CDCPercent = 100 * float64(res.CDCBytes) / float64(res.GzipBytes)
	}

	cfg.printf("Figure 17: hidden deterministic communication (Jacobi, %d ranks, %d iterations, %d events)\n",
		res.Ranks, res.Iterations, res.Events)
	cfg.printf("  gzip: %12s\n", human(res.GzipBytes))
	cfg.printf("  CDC:  %12s  (%.1f%% of gzip; paper: 2.2%%)\n", human(res.CDCBytes), res.CDCPercent)
	return res, nil
}
