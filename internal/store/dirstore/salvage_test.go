package dirstore_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

// rcv identifies one application-observed receive: the unique
// (sender, piggyback clock) pair.
type rcv struct {
	src   int
	clock uint64
}

// tapLayer logs every matched receive the application observes, in order.
// It sits below the recorder — the app→recorder frame chain is untouched,
// so MF callsite identification still sees the application's call sites —
// and embeds the lamport layer so the recorder can still sample Clock().
// MCB completes all its receives through Testsome, the only MF it calls.
type tapLayer struct {
	*lamport.Layer
	log *[]rcv
}

func (t *tapLayer) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := t.Layer.Testsome(reqs)
	for _, st := range sts {
		*t.log = append(*t.log, rcv{st.Source, st.Clock})
	}
	return idxs, sts, err
}

// recordCrashedRun records MCB into dir under a fault plan killing rank 1
// after kill receives, abandoning each recorder the way a crash would. The
// rank writers commit no cuts, so recording costs exactly the file writes.
// It returns the per-rank application-observed receive logs.
func recordCrashedRun(t *testing.T, dir string, params mcb.Params, seed int64, kill uint64) [][]rcv {
	t.Helper()
	const ranks = 4
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: ranks, App: "mcb"}); err != nil {
		t.Fatal(err)
	}
	recLogs := make([][]rcv, ranks)
	plan := &simmpi.FaultPlan{KillRank: 1, KillAfterReceives: kill}
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: seed, MaxJitter: 8, Faults: plan})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		f, err := st.CreateRank(rank)
		if err != nil {
			return err
		}
		enc, err := core.NewEncoder(f, core.EncoderOptions{Durable: true})
		if err != nil {
			f.Close()
			return err
		}
		tap := &tapLayer{Layer: lamport.Wrap(mpi), log: &recLogs[rank]}
		rec := record.New(tap, enc, record.Options{FlushEveryRows: 16})
		_, rerr := mcb.Run(rec, params)
		if rerr == nil {
			// This rank outran the fault; close cleanly (the directory as a
			// whole is still incomplete — Finalize is never called).
			if err := rec.Close(); err != nil {
				return err
			}
			return f.Close()
		}
		rec.Abandon()
		f.Close()
		if errors.Is(rerr, simmpi.ErrKilled) || errors.Is(rerr, simmpi.ErrAborted) {
			return nil
		}
		return rerr
	})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if !w.Aborted() {
		t.Fatal("fault plan did not kill rank 1")
	}
	return recLogs
}

// TestKillARankSalvageReplay is the crash-consistency pipeline end to end:
// record MCB under a fault plan that kills one rank mid-run, salvage the
// torn directory, replay the salvaged record on two different networks, and
// require each rank's replayed receive order to match the crashed run's
// observed order through the entire salvaged prefix.
func TestKillARankSalvageReplay(t *testing.T) {
	const ranks = 4
	params := mcb.Params{Particles: 150, TimeSteps: 2, Seed: 11, CrossProb: 0.4}
	dir := filepath.Join(t.TempDir(), "record")
	salv := filepath.Join(t.TempDir(), "salvaged")

	// A crash that lands before some rank durably flushed anything salvages
	// nothing — the consistent frontier is the minimum across ranks, exactly
	// like a coordinated checkpoint. That placement is a scheduling accident
	// (likely on a single-CPU box), so re-roll the crash until it lands
	// somewhere salvageable; the ordering property is checked wherever it
	// lands.
	var recLogs [][]rcv
	var report *store.SalvageReport
	var kept, total uint64
	for attempt := 0; attempt < 6; attempt++ {
		recLogs = recordCrashedRun(t, dir, params, 5+int64(attempt), 90+60*uint64(attempt))
		var err error
		report, err = store.SalvageTo(dirstore.New(dir), dirstore.New(salv))
		if err != nil {
			t.Fatalf("salvage: %v", err)
		}
		kept, total = report.Events()
		for _, rs := range report.Ranks {
			t.Logf("attempt %d rank %d: kept %d/%d segments, %d/%d events, frontier %d, torn=%v %s",
				attempt, rs.Rank, rs.SegmentsKept, rs.SegmentsTotal, rs.EventsKept, rs.EventsTotal,
				rs.Frontier, rs.Truncated, rs.Damage)
		}
		if kept > 0 {
			break
		}
	}
	if kept == 0 {
		t.Fatalf("no crash placement salvaged any events (last run recorded %d)", total)
	}
	t.Logf("salvaged %d of %d events", kept, total)
	replaySalvaged(t, salv, params, report, recLogs)
}

// TestSalvageStopsBeforeUnreachedCollective salvages and replays a crashed
// run kept in testdata/collective-crash: an MCB record made as
// recordCrashedRun makes one (seed 5, rank 1 killed after 90 receives),
// with each rank's observed receives in received.txt. Its ranks' last durable marks lie past
// different quiescence Allreduces. A rank kept past an Allreduce whose
// contribution from another rank lies beyond that rank's kept prefix
// replays with a different sum there and diverges (with the collective rule
// off, both replay seeds stall on a message its sender never sends), so
// salvage must stop every rank before such a collective.
func TestSalvageStopsBeforeUnreachedCollective(t *testing.T) {
	const ranks = 4
	params := mcb.Params{Particles: 150, TimeSteps: 2, Seed: 11, CrossProb: 0.4}
	src := filepath.Join(t.TempDir(), "record")
	salv := filepath.Join(t.TempDir(), "salvaged")
	copyDir(t, filepath.Join("testdata", "collective-crash", "run"), src)

	report, err := store.SalvageTo(dirstore.New(src), dirstore.New(salv))
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if kept, _ := report.Events(); kept == 0 {
		t.Fatal("salvage kept no events")
	}
	recLogs := make([][]rcv, ranks)
	data, err := os.ReadFile(filepath.Join("testdata", "collective-crash", "received.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rank int
		var x rcv
		if _, err := fmt.Sscan(line, &rank, &x.src, &x.clock); err != nil {
			t.Fatalf("received.txt line %q: %v", line, err)
		}
		recLogs[rank] = append(recLogs[rank], x)
	}
	replaySalvaged(t, salv, params, report, recLogs)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// replaySalvaged replays the salvaged run in salv on two different networks
// and requires each rank's replayed receive order to match recLogs, the
// crashed run's observed order, through the entire salvaged prefix.
func replaySalvaged(t *testing.T, salv string, params mcb.Params, report *store.SalvageReport, recLogs [][]rcv) {
	t.Helper()
	ranks := len(recLogs)
	for _, seed := range []int64{77, 78} {
		repLogs := make([][]rcv, ranks)
		var mu sync.Mutex
		var liveTotal uint64
		w2 := simmpi.NewWorld(ranks, simmpi.Options{Seed: seed, MaxJitter: 8})
		err := w2.RunRanked(func(rank int, mpi simmpi.MPI) error {
			rp, err := replay.Open(lamport.WrapManual(mpi), rankSource(dirstore.New(salv), rank), replay.Options{
				LiveAfterExhausted: true,
				OnRelease: func(st simmpi.Status) {
					repLogs[rank] = append(repLogs[rank], rcv{st.Source, st.Clock})
				},
			})
			if err != nil {
				return err
			}
			defer rp.Close()
			if _, rerr := mcb.Run(rp, params); rerr != nil {
				return rerr
			}
			if err := rp.Verify(); err != nil {
				return err
			}
			mu.Lock()
			liveTotal += rp.Stats().LiveReleases
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("replay run (seed %d): %v", seed, err)
		}
		if liveTotal == 0 {
			t.Errorf("replay (seed %d) never went live past the crash frontier", seed)
		}

		// The replayed order must reproduce the crashed run's observed order
		// through the whole salvaged prefix, rank by rank.
		for r := 0; r < ranks; r++ {
			n := int(report.Ranks[r].EventsKept)
			if len(recLogs[r]) < n || len(repLogs[r]) < n {
				t.Fatalf("seed %d rank %d: logs shorter than salvaged prefix: recorded %d, replayed %d, want >= %d",
					seed, r, len(recLogs[r]), len(repLogs[r]), n)
			}
			for i := 0; i < n; i++ {
				if repLogs[r][i] != recLogs[r][i] {
					t.Fatalf("seed %d rank %d: receive %d/%d diverged: recorded %+v, replayed %+v",
						seed, r, i, n, recLogs[r][i], repLogs[r][i])
				}
			}
		}
	}
}

// rankSource opens one rank of a run as a streaming record, in the shape
// replay.Open takes.
func rankSource(st store.Store, rank int) func() (*core.RecordIter, io.Closer, error) {
	return func() (*core.RecordIter, io.Closer, error) {
		return store.OpenRankIter(st, rank, core.DecoderOptions{})
	}
}
