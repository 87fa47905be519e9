// Package harness drives the paper's evaluation (§6): one driver per table
// or figure, each regenerating the corresponding rows or series from live
// runs on the simulated substrate. EXPERIMENTS.md records how the shapes
// compare with the paper's Catalyst measurements.
package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// Config selects experiment scale and output.
type Config struct {
	// Out receives the printed tables; defaults to io.Discard if nil.
	Out io.Writer
	// Full selects paper-leaning scales (more ranks, more particles);
	// the default is a laptop-quick configuration with the same shape.
	Full bool
	// Seed perturbs the network noise.
	Seed int64
}

func (c *Config) fill() {
	if c.Out == nil {
		c.Out = io.Discard
	}
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// pick returns quick for the default configuration and full under -full.
func (c *Config) pick(quick, full int) int {
	if c.Full {
		return full
	}
	return quick
}

// Row is one captured record-table row with its MF callsite.
type Row struct {
	Callsite uint64
	Name     string
	Ev       tables.Event
}

// capture is a record sink that retains the raw event stream so several
// compression methods can be compared over identical input.
type capture struct {
	rows  []Row
	names map[uint64]string
}

func newCapture() *capture { return &capture{names: map[uint64]string{}} }

func (c *capture) Observe(cs uint64, ev tables.Event) error {
	c.rows = append(c.rows, Row{Callsite: cs, Name: c.names[cs], Ev: ev})
	return nil
}

func (c *capture) RegisterCallsite(id uint64, name string) error {
	c.names[id] = name
	return nil
}

func (c *capture) FlushAll(uint64) error { return nil }

func (c *capture) NoteCollective(uint64) {}

func (c *capture) Close() error { return nil }

// MCBRun holds everything a captured MCB run yields.
type MCBRun struct {
	Ranks   int
	Params  mcb.Params
	Rows    [][]Row // per rank, in observed order
	Results []mcb.Result
	Elapsed time.Duration
}

// MatchedEvents counts matched receive events across all ranks.
func (r *MCBRun) MatchedEvents() uint64 {
	var n uint64
	for _, rows := range r.Rows {
		for _, row := range rows {
			if row.Ev.Flag {
				n++
			}
		}
	}
	return n
}

// captureMCB runs MCB under a capturing recorder on every rank.
func captureMCB(cfg *Config, ranks int, params mcb.Params) (*MCBRun, error) {
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: cfg.Seed, MaxJitter: 8})
	run := &MCBRun{
		Ranks:   ranks,
		Params:  params,
		Rows:    make([][]Row, ranks),
		Results: make([]mcb.Result, ranks),
	}
	var mu sync.Mutex
	start := time.Now()
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		cap := newCapture()
		rec := record.New(lamport.Wrap(mpi), cap, record.Options{})
		res, rerr := mcb.Run(rec, params)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		mu.Lock()
		run.Rows[rank] = cap.rows
		run.Results[rank] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	run.Elapsed = time.Since(start)
	return run, nil
}

// feed replays a captured row stream into a method and returns its size.
func feed(m baseline.Method, rows []Row) (int64, error) {
	for _, row := range rows {
		if row.Name != "" {
			if err := m.RegisterCallsite(row.Callsite, row.Name); err != nil {
				return 0, err
			}
		}
		if err := m.Observe(row.Callsite, row.Ev); err != nil {
			return 0, err
		}
	}
	if err := m.Close(); err != nil {
		return 0, err
	}
	return m.BytesWritten(), nil
}

// merged returns rows with every callsite folded into 0 and no names: the
// stream a recorder without MF identification (§4.4) produces, which the
// "CDC (RE + PE + LPE)" bar encodes.
func merged(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{Ev: r.Ev}
	}
	return out
}

// human formats a byte count.
func human(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
