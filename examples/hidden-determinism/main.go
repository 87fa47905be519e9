// Hidden determinism: the paper's §6.3 scenario.
//
// The Jacobi solver posts MPI_ANY_SOURCE receives for its halo rows, so a
// record-and-replay tool cannot know the traffic is actually deterministic
// and must record every receive. This example shows that CDC's encoding
// collapses such a record to a tiny fraction of gzip's size — "as if
// deterministic communications are automatically excluded from recording"
// — and that the solver still replays exactly.
//
// The record side drops below the public cdc facade on purpose: comparing
// two compression backends over the *identical* event stream needs a tee
// into both, which is an internal-API affair. The replay side uses
// cdc.Replay like any other consumer.
//
// Run:
//
//	go run ./examples/hidden-determinism
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"cdcreplay/cdc"
	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/jacobi"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
)

const ranks = 8

var params = jacobi.Params{Rows: 12, Cols: 24, Iterations: 400}

func main() {
	tmp, err := os.MkdirTemp("", "cdc-hidden-determinism-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "rec")

	// Record with a CDC backend and, over the identical event stream, a
	// gzip backend for comparison.
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: ranks, App: "jacobi"}); err != nil {
		log.Fatal(err)
	}
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: 5, MaxJitter: 6})
	var cdcBytes, gzipBytes int64
	var events uint64
	checks := make([]float64, ranks)
	var mu sync.Mutex
	err = w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bw, err := st.CreateRank(rank)
		if err != nil {
			return err
		}
		enc, err := core.NewEncoder(bw, core.EncoderOptions{})
		if err != nil {
			return err
		}
		gz := baseline.NewGzip()
		// A tee backend: every observed event goes to both methods.
		tee := teeMethod{a: enc, b: gz}
		rec := record.New(lamport.Wrap(mpi), tee, record.Options{})
		res, rerr := jacobi.Run(rec, params)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if ferr := bw.Close(); rerr == nil {
			rerr = ferr
		}
		if rerr != nil {
			return rerr
		}
		mu.Lock()
		cdcBytes += enc.BytesWritten()
		gzipBytes += gz.BytesWritten()
		events += enc.Stats().MatchedEvents
		checks[rank] = res.Checksum
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatalf("record run: %v", err)
	}
	if err := st.Finalize(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Jacobi, %d ranks, %d iterations, %d wildcard halo receives\n",
		ranks, params.Iterations, events)
	fmt.Printf("  gzip record: %8d bytes\n", gzipBytes)
	fmt.Printf("  CDC record:  %8d bytes  (%.1f%% of gzip — paper reports 2.2%%)\n\n",
		cdcBytes, 100*float64(cdcBytes)/float64(gzipBytes))

	// Replay to prove the record drives the solver exactly.
	w2 := simmpi.NewWorld(ranks, simmpi.Options{Seed: 77, MaxJitter: 6})
	_, err = cdc.Replay(w2, func(rank int, mpi simmpi.MPI) error {
		res, err := jacobi.Run(mpi, params)
		if err != nil {
			return err
		}
		if res.Checksum != checks[rank] {
			return fmt.Errorf("rank %d replay checksum differs", rank)
		}
		return nil
	}, cdc.WithDir(dir), cdc.WithApp("jacobi"))
	if err != nil {
		log.Fatalf("replay run: %v", err)
	}
	fmt.Println("replay reproduced every rank's slab checksum exactly")
}

// teeMethod duplicates the event stream to two recording backends so both
// compress the identical input.
type teeMethod struct {
	a, b baseline.Method
}

func (t teeMethod) Observe(cs uint64, ev tables.Event) error {
	if err := t.a.Observe(cs, ev); err != nil {
		return err
	}
	return t.b.Observe(cs, ev)
}

func (t teeMethod) RegisterCallsite(id uint64, name string) error {
	if err := t.a.RegisterCallsite(id, name); err != nil {
		return err
	}
	return t.b.RegisterCallsite(id, name)
}

func (t teeMethod) FlushAll(clock uint64) error {
	if err := t.a.FlushAll(clock); err != nil {
		return err
	}
	return t.b.FlushAll(clock)
}

func (t teeMethod) NoteCollective(clock uint64) {
	t.a.NoteCollective(clock)
	t.b.NoteCollective(clock)
}

func (t teeMethod) Close() error {
	if err := t.a.Close(); err != nil {
		return err
	}
	return t.b.Close()
}
