package harness

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// AblationRow is one configuration's measurement.
type AblationRow struct {
	Name          string
	BytesPerEvent float64
	PermutedPct   float64
}

// AblationResult holds the design-choice sweeps DESIGN.md calls out:
// epoch chunk size, clock policy, network jitter, and the sender-column
// robustness extension.
type AblationResult struct {
	ChunkSize    []AblationRow
	ClockPolicy  []AblationRow
	Jitter       []AblationRow
	SenderColumn []AblationRow
}

// jitterSeeds is how many seeds each jitter row runs. A single run's
// permutation share moves by several points with goroutine scheduling, as
// much as the gap between neighbouring jitter windows; the median run of
// five keeps the sweep's order stable.
const jitterSeeds = 5

// medianRow returns the run with the median permutation share (its bytes
// per event travel with it).
func medianRow(runs []AblationRow) AblationRow {
	sorted := slices.Clone(runs)
	slices.SortFunc(sorted, func(a, b AblationRow) int { return cmp.Compare(a.PermutedPct, b.PermutedPct) })
	return sorted[len(sorted)/2]
}

// captureWithPolicy runs MCB under a capturing recorder with the given
// clock policy and jitter.
func captureWithPolicy(cfg *Config, ranks, jitter int, policy lamport.Policy, seed int64) ([][]tables.Event, error) {
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: seed, MaxJitter: jitter})
	rows := make([][]tables.Event, ranks)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		cap := newCapture()
		rec := record.New(lamport.WrapPolicy(mpi, policy), cap, record.Options{})
		_, rerr := mcb.Run(rec, mcb.Params{
			Particles: cfg.pick(150, 500),
			TimeSteps: 2,
			Seed:      seed,
		})
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return rerr
		}
		events := make([]tables.Event, len(cap.rows))
		for i, r := range cap.rows {
			events[i] = r.Ev
		}
		mu.Lock()
		rows[rank] = events
		mu.Unlock()
		return nil
	})
	return rows, err
}

// encodeWith encodes captured rows through a CDC encoder with the given
// options and reports size and permutation statistics.
func encodeWith(rows [][]tables.Event, opts core.EncoderOptions) (AblationRow, error) {
	var row AblationRow
	var bytesTotal int64
	var permuted, matched uint64
	for _, evs := range rows {
		enc, err := core.NewEncoder(io.Discard, opts)
		if err != nil {
			return row, err
		}
		for _, ev := range evs {
			if err := enc.Observe(0, ev); err != nil {
				return row, err
			}
		}
		if err := enc.Close(); err != nil {
			return row, err
		}
		bytesTotal += enc.BytesWritten()
		permuted += enc.Stats().PermutedMessages
		matched += enc.Stats().MatchedEvents
	}
	if matched > 0 {
		row.BytesPerEvent = float64(bytesTotal) / float64(matched)
		row.PermutedPct = 100 * float64(permuted) / float64(matched)
	}
	return row, nil
}

// Ablations runs the design-choice sweeps and prints them.
func Ablations(cfg Config) (*AblationResult, error) {
	cfg.fill()
	ranks := cfg.pick(8, 16)
	res := &AblationResult{}

	base, err := captureWithPolicy(&cfg, ranks, 8, lamport.Classic, cfg.Seed+21)
	if err != nil {
		return nil, err
	}

	cfg.printf("Ablation: epoch chunk size (§3.5 memory/size trade)\n")
	for _, chunk := range []int{256, 1024, 4096, 16384} {
		row, err := encodeWith(base, core.EncoderOptions{ChunkEvents: chunk, OmitSenderColumn: true})
		if err != nil {
			return nil, err
		}
		row.Name = fmt.Sprintf("chunk %5d", chunk)
		res.ChunkSize = append(res.ChunkSize, row)
		cfg.printf("  %-12s %7.3f B/event\n", row.Name, row.BytesPerEvent)
	}

	cfg.printf("Ablation: sender/tag column (replay robustness extension)\n")
	for _, omit := range []bool{true, false} {
		row, err := encodeWith(base, core.EncoderOptions{OmitSenderColumn: omit})
		if err != nil {
			return nil, err
		}
		if omit {
			row.Name = "paper format"
		} else {
			row.Name = "with columns"
		}
		res.SenderColumn = append(res.SenderColumn, row)
		cfg.printf("  %-12s %7.3f B/event\n", row.Name, row.BytesPerEvent)
	}

	cfg.printf("Ablation: clock policy (§4.3 future work)\n")
	for _, pc := range []struct {
		name   string
		policy lamport.Policy
	}{{"classic", lamport.Classic}, {"receiveMax", lamport.ReceiveMax}} {
		rows, err := captureWithPolicy(&cfg, ranks, 8, pc.policy, cfg.Seed+22)
		if err != nil {
			return nil, err
		}
		row, err := encodeWith(rows, core.EncoderOptions{OmitSenderColumn: true})
		if err != nil {
			return nil, err
		}
		row.Name = pc.name
		res.ClockPolicy = append(res.ClockPolicy, row)
		cfg.printf("  %-12s %7.3f B/event  %5.1f%% permuted\n", row.Name, row.BytesPerEvent, row.PermutedPct)
	}

	cfg.printf("Ablation: network jitter window (noise → permutation → size; median of %d seeds)\n", jitterSeeds)
	for _, jitter := range []int{0, 4, 16, 64} {
		runs := make([]AblationRow, jitterSeeds)
		for i := range runs {
			rows, err := captureWithPolicy(&cfg, ranks, jitter, lamport.Classic, cfg.Seed+23+int64(i))
			if err != nil {
				return nil, err
			}
			if runs[i], err = encodeWith(rows, core.EncoderOptions{OmitSenderColumn: true}); err != nil {
				return nil, err
			}
		}
		row := medianRow(runs)
		row.Name = fmt.Sprintf("jitter %3d", jitter)
		res.Jitter = append(res.Jitter, row)
		cfg.printf("  %-12s %7.3f B/event  %5.1f%% permuted\n", row.Name, row.BytesPerEvent, row.PermutedPct)
	}
	return res, nil
}
