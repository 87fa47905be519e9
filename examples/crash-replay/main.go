// Crash, salvage, replay-to-crash-point: the robustness story end to end.
//
// The record of a run that crashes is exactly the record you most want to
// replay — and exactly the one that never closed cleanly. This example
// records an MCB run under a fault plan that kills one rank mid-flight,
// abandons the recorders the way a dying process would, then:
//
//  1. shows that opening the torn run for replay is refused (ErrIncomplete),
//  2. salvages a crash-consistent prefix in place via the run's Store,
//  3. replays the salvaged record on a different network; each rank
//     replays deterministically up to the crash frontier and then hands
//     execution back to live non-deterministic mode, so the application
//     runs to completion.
//
// Run:
//
//	go run ./examples/crash-replay
package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"sync"

	"cdcreplay/cdc"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

const ranks = 4

var params = mcb.Params{Particles: 200, TimeSteps: 2, Seed: 7, CrossProb: 0.4}

func main() {
	tmp, err := os.MkdirTemp("", "crash-replay-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	recDir := tmp + "/record"

	// ---- Record under a fault plan that kills rank 2 mid-run. ----
	plan := &simmpi.FaultPlan{KillRank: 2, KillAfterReceives: 120}
	fmt.Printf("recording MCB on %d ranks; fault plan kills rank %d after %d receives\n",
		ranks, plan.KillRank, plan.KillAfterReceives)

	st := dirstore.New(recDir)
	if err := st.Create(store.Manifest{Ranks: ranks, App: "mcb"}); err != nil {
		log.Fatal(err)
	}
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: 3, MaxJitter: 8, Faults: plan})
	var mu sync.Mutex
	crashed := 0
	err = w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bw, err := st.CreateRank(rank)
		if err != nil {
			return err
		}
		enc, err := core.NewEncoder(bw, core.EncoderOptions{Durable: true})
		if err != nil {
			bw.Close()
			return err
		}
		rec := record.New(lamport.Wrap(mpi), enc, record.Options{FlushEveryRows: 24})
		_, rerr := mcb.Run(rec, params)
		if rerr == nil {
			rerr = rec.Close()
			bw.Close()
			return rerr
		}
		// The run died. A real process would simply vanish; Abandon models
		// that — the recorder's queue is dropped and the backend is never
		// closed, so the file ends wherever the last durable flush left it.
		rec.Abandon()
		bw.Close()
		if errors.Is(rerr, simmpi.ErrKilled) || errors.Is(rerr, simmpi.ErrAborted) {
			mu.Lock()
			crashed++
			mu.Unlock()
			return nil
		}
		return rerr
	})
	if err != nil {
		log.Fatalf("record run: %v", err)
	}
	fmt.Printf("run crashed as planned: %d/%d ranks unwound without closing their records\n\n", crashed, ranks)

	// ---- The torn directory is refused up front. ----
	if _, err := store.Open(st, "mcb", ranks); errors.Is(err, store.ErrIncomplete) {
		fmt.Printf("replaying it directly is refused: %v\n\n", err)
	} else {
		log.Fatalf("expected ErrIncomplete opening the crashed record, got %v", err)
	}

	// ---- Salvage a crash-consistent prefix, in place. ----
	report, err := st.Salvage()
	if err != nil {
		log.Fatalf("salvage: %v", err)
	}
	kept, total := report.Events()
	fmt.Printf("salvage recovered %d of %d recorded events:\n", kept, total)
	for _, rs := range report.Ranks {
		state := "clean"
		if rs.Truncated {
			state = "torn: " + rs.Damage
		}
		front := "intact"
		if rs.Frontier != math.MaxUint64 {
			front = fmt.Sprintf("clock %d", rs.Frontier)
		}
		fmt.Printf("  rank %d: kept %d/%d segments, %d/%d events, frontier %s (%s)\n",
			rs.Rank, rs.SegmentsKept, rs.SegmentsTotal, rs.EventsKept, rs.EventsTotal, front, state)
	}
	if kept == 0 {
		// The cut is the minimum over ranks: one rank with no usable flush
		// point leaves every rank at frontier zero.
		fmt.Println("  no rank kept a flush point the cut could use; the replay runs live from the start")
	}
	fmt.Println()

	// ---- Replay the salvaged record to the crash point, then continue. ----
	// cdc.Replay opens and validates the salvaged directory itself; a
	// Salvaged manifest automatically enables live continuation past each
	// rank's crash frontier.
	w2 := simmpi.NewWorld(ranks, simmpi.Options{Seed: 99, MaxJitter: 8})
	var tally float64
	rrep, err := cdc.Replay(w2, func(rank int, mpi simmpi.MPI) error {
		res, err := mcb.Run(mpi, params)
		if err != nil {
			return err
		}
		if rank == 0 {
			mu.Lock()
			tally = res.GlobalTally
			mu.Unlock()
		}
		return nil
	}, cdc.WithDir(recDir), cdc.WithApp("mcb"))
	if err != nil {
		log.Fatalf("replay run: %v", err)
	}
	fmt.Printf("salvaged directory opened cleanly (salvaged=%v); replayed on a different network\n", rrep.Salvaged)
	var replayed, live uint64
	for _, rr := range rrep.Ranks {
		replayed += rr.Stats.Released
		live += rr.Stats.LiveReleases
	}
	fmt.Printf("replay completed: %d receives replayed in recorded order, %d delivered live past the frontier\n",
		replayed, live)
	if isLive, notes := rrep.Live(); isLive {
		for _, n := range notes {
			fmt.Printf("  %s\n", n)
		}
	}
	if kept == 0 {
		fmt.Printf("final tally %.17g — nothing was salvaged, so the whole run executed live\n", tally)
		return
	}
	fmt.Printf("final tally %.17g — the crashed run's prefix was reproduced exactly, then execution ran on\n", tally)
}
