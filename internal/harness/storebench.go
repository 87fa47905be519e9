package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/memstore"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// StoreBackendRun is one backend's measurement: record a multi-rank stream
// through the Store API with per-epoch commits, replay it in full, and —
// on seekable backends — decode only the final epoch via the chunk index.
type StoreBackendRun struct {
	// Layout is the backend's store layout name (dir, sharded, mem).
	Layout string `json:"layout"`
	// Seekable reports whether committed index offsets are random-access
	// decode points on this backend.
	Seekable bool `json:"seekable"`
	// RecordNs is the wall-clock time to record and finalize every rank.
	RecordNs           int64   `json:"record_ns"`
	RecordEventsPerSec float64 `json:"record_events_per_sec"`
	// ReplayFullNs is the wall-clock time to stream-decode every rank
	// from byte zero.
	ReplayFullNs       int64   `json:"replay_full_ns"`
	ReplayEventsPerSec float64 `json:"replay_events_per_sec"`
	// SeekTailNs is the wall-clock time to decode only past the last
	// committed cut of every rank, entered through the index (seekable
	// backends only; 0 otherwise). The index exists so a replayer can skip
	// to an epoch — this must beat decoding the whole blob.
	SeekTailNs int64 `json:"seek_tail_ns"`
	// Bytes is the total record size across ranks; Cuts the committed
	// index entries across ranks.
	Bytes int64 `json:"bytes"`
	Cuts  int   `json:"cuts"`
}

// StoreBenchResult is the machine-readable BENCH_store.json payload: the
// same workload pushed through every storage backend.
type StoreBenchResult struct {
	Seed   int64 `json:"seed"`
	Full   bool  `json:"full"`
	Ranks  int   `json:"ranks"`
	Events int   `json:"events"`
	Epochs int   `json:"epochs"`
	// Verified reports every backend decoded exactly the matched events it
	// recorded.
	Verified bool              `json:"verified"`
	Backends []StoreBackendRun `json:"backends"`
}

// Validate checks the capture is usable as a regression gate.
func (r *StoreBenchResult) Validate() error {
	if len(r.Backends) < 3 {
		return fmt.Errorf("store: want all three backends, have %d", len(r.Backends))
	}
	if !r.Verified {
		return fmt.Errorf("store: a backend decoded different events than it recorded")
	}
	for _, b := range r.Backends {
		if b.RecordEventsPerSec <= 0 || b.ReplayEventsPerSec <= 0 {
			return fmt.Errorf("store: backend %s measured no throughput", b.Layout)
		}
		if b.Seekable && b.SeekTailNs <= 0 {
			return fmt.Errorf("store: seekable backend %s measured no seek time", b.Layout)
		}
	}
	return nil
}

// WriteJSON writes the result to path (indented, trailing newline).
func (r *StoreBenchResult) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// storeBenchRecord streams evs through st rank by rank, committing a cut
// per epoch, and returns the total matched events written.
func storeBenchRecord(st store.Store, evs [][]tables.Event, epochs int) (uint64, error) {
	if err := st.Create(store.Manifest{Ranks: len(evs), App: "storebench"}); err != nil {
		return 0, err
	}
	var matched uint64
	for rank, stream := range evs {
		w, err := st.CreateRank(rank)
		if err != nil {
			return 0, err
		}
		enc, err := core.NewEncoder(w, core.EncoderOptions{
			ChunkEvents:  256,
			SeekableCuts: st.Seekable(),
			OnFlushPoint: func(clock, events uint64, offset int64) error {
				return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
			},
		})
		if err != nil {
			return 0, err
		}
		per := (len(stream) + epochs - 1) / epochs
		var maxClock uint64
		for i, ev := range stream {
			if err := enc.Observe(1, ev); err != nil {
				return 0, err
			}
			if ev.Clock > maxClock {
				maxClock = ev.Clock
			}
			if ev.Flag {
				matched++
			}
			if (i+1)%per == 0 && i+1 < len(stream) {
				if err := enc.FlushAll(maxClock); err != nil {
					return 0, err
				}
			}
		}
		if err := enc.Close(); err != nil {
			return 0, err
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
	}
	return matched, st.Finalize()
}

// storeBenchReplay decodes every rank from byte zero and returns the total
// matched events.
func storeBenchReplay(st store.Store, ranks int) (uint64, error) {
	var matched uint64
	for rank := 0; rank < ranks; rank++ {
		it, blob, err := store.OpenRankIter(st, rank, core.DecoderOptions{})
		if err != nil {
			return 0, err
		}
		for err == nil {
			_, err = it.Next()
		}
		if err == io.EOF {
			err = nil
		}
		matched += it.Events()
		if err := errors.Join(err, it.Close(), blob.Close()); err != nil {
			return 0, err
		}
	}
	return matched, nil
}

// storeBenchSeekTail decodes only past the last committed cut of every
// rank, entered directly through the chunk index.
func storeBenchSeekTail(st store.Store, m store.Manifest) error {
	for rank := 0; rank < m.Ranks; rank++ {
		idx := m.RankIndex(rank)
		if len(idx) < 2 {
			continue
		}
		offset := idx[len(idx)-2].Offset
		r, err := st.OpenRank(rank)
		if err != nil {
			return err
		}
		it, err := core.OpenRecordAt(io.NewSectionReader(r, offset, r.Size()-offset))
		if err != nil {
			r.Close() //cdc:allow(errsink) best-effort cleanup; the open error is already propagating
			return err
		}
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				it.Close() //cdc:allow(errsink) best-effort cleanup; the decode error is already propagating
				r.Close()  //cdc:allow(errsink) best-effort cleanup; the decode error is already propagating
				return err
			}
		}
		if err := it.Close(); err != nil {
			r.Close() //cdc:allow(errsink) best-effort cleanup; the close error is already propagating
			return err
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}

// StoreBench pushes one synthetic multi-rank stream through every storage
// backend (dir, sharded, mem) behind the Store API, measuring record
// throughput with per-epoch index commits, full replay throughput, and —
// where cuts are seekable — the index-entry seek that skips straight to
// the final epoch.
func StoreBench(cfg Config) (*StoreBenchResult, error) {
	cfg.fill()
	ranks := 4
	perRank := cfg.pick(20_000, 100_000)
	const epochs = 16
	result := &StoreBenchResult{
		Seed:     cfg.Seed,
		Full:     cfg.Full,
		Ranks:    ranks,
		Epochs:   epochs,
		Verified: true,
	}

	evs := make([][]tables.Event, ranks)
	var total uint64
	for rank := range evs {
		evs[rank] = workload.Stream(workload.StreamParams{
			Events: perRank, Senders: 4, Disorder: 3, UnmatchedProb: 0.1,
			Seed: cfg.Seed + int64(rank)*101,
		})
		for _, ev := range evs[rank] {
			if ev.Flag {
				total++
			}
		}
	}
	result.Events = int(total)

	tmp, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	backends := []struct {
		name string
		st   store.Store
	}{
		{"dir", dirstore.New(filepath.Join(tmp, "dir"))},
		{"sharded", shardstore.New(filepath.Join(tmp, "sharded"))},
		{"mem", memstore.New()},
	}

	cfg.printf("Store backends: %d ranks x %d events, %d epochs per rank\n",
		ranks, perRank, epochs)
	cfg.printf("%8s %12s %12s %12s %12s %10s %6s\n",
		"layout", "record ev/s", "replay ev/s", "seek tail", "bytes", "cuts", "seek")
	for _, b := range backends {
		run := StoreBackendRun{Layout: b.st.Layout(), Seekable: b.st.Seekable()}

		start := time.Now()
		wrote, err := storeBenchRecord(b.st, evs, epochs)
		if err != nil {
			return nil, fmt.Errorf("store: recording via %s: %w", b.name, err)
		}
		run.RecordNs = time.Since(start).Nanoseconds()
		run.RecordEventsPerSec = float64(wrote) / (float64(run.RecordNs) / 1e9)

		start = time.Now()
		read, err := storeBenchReplay(b.st, ranks)
		if err != nil {
			return nil, fmt.Errorf("store: replaying via %s: %w", b.name, err)
		}
		run.ReplayFullNs = time.Since(start).Nanoseconds()
		run.ReplayEventsPerSec = float64(read) / (float64(run.ReplayFullNs) / 1e9)
		if read != wrote {
			result.Verified = false
		}

		m, err := b.st.Manifest()
		if err != nil {
			return nil, err
		}
		for rank := 0; rank < ranks; rank++ {
			idx := m.RankIndex(rank)
			run.Cuts += len(idx)
			if len(idx) > 0 {
				run.Bytes += idx[len(idx)-1].Offset
			}
		}
		if run.Seekable {
			start = time.Now()
			if err := storeBenchSeekTail(b.st, m); err != nil {
				return nil, fmt.Errorf("store: seeking via %s: %w", b.name, err)
			}
			run.SeekTailNs = time.Since(start).Nanoseconds()
		}

		result.Backends = append(result.Backends, run)
		seek := "-"
		if run.Seekable {
			seek = time.Duration(run.SeekTailNs).Round(time.Microsecond).String()
		}
		cfg.printf("%8s %12.0f %12.0f %12s %12s %10d %6v\n",
			run.Layout, run.RecordEventsPerSec, run.ReplayEventsPerSec,
			seek, human(run.Bytes), run.Cuts, run.Seekable)
	}
	if err := result.Validate(); err != nil {
		return result, err
	}
	return result, nil
}
