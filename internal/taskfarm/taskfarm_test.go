package taskfarm

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
)

func runPlain(t *testing.T, n int, seed int64, params Params) (Result, []int) {
	t.Helper()
	w := simmpi.NewWorld(n, simmpi.Options{Seed: seed, MaxJitter: 8})
	var master Result
	done := make([]int, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		r, err := Run(mpi, params)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		mu.Lock()
		if rank == 0 {
			master = r
		}
		done[rank] = r.TasksDone
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return master, done
}

func TestAllTasksComputedExactlyOnce(t *testing.T) {
	const n, tasks = 5, 40
	master, done := runPlain(t, n, 3, Params{Tasks: tasks})
	total := 0
	for rank, d := range done {
		if rank == 0 && d != 0 {
			t.Fatalf("master computed %d tasks", d)
		}
		total += d
	}
	if total != tasks {
		t.Fatalf("workers computed %d tasks, want %d", total, tasks)
	}
	for task, w := range master.Assignment {
		if w < 1 || w >= n {
			t.Fatalf("task %d assigned to invalid worker %d", task, w)
		}
	}
	if master.Reduction == 0 {
		t.Fatal("reduction not computed")
	}
}

func TestMoreWorkersThanTasks(t *testing.T) {
	master, done := runPlain(t, 8, 4, Params{Tasks: 3})
	total := 0
	for _, d := range done {
		total += d
	}
	if total != 3 {
		t.Fatalf("computed %d tasks, want 3", total)
	}
	if len(master.Assignment) != 3 {
		t.Fatalf("assignment = %v", master.Assignment)
	}
}

func TestNeedsTwoRanks(t *testing.T) {
	w := simmpi.NewWorld(1, simmpi.Options{})
	err := w.Run(func(mpi simmpi.MPI) error {
		_, err := Run(mpi, Params{})
		if err == nil {
			return fmt.Errorf("single-rank run succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAssignmentNondeterminism: the task→worker assignment depends on who
// answers first, so it varies across runs.
func TestAssignmentNondeterminism(t *testing.T) {
	assignments := map[string]bool{}
	for trial := 0; trial < 8; trial++ {
		master, _ := runPlain(t, 5, int64(trial+10), Params{Tasks: 30})
		assignments[fmt.Sprint(master.Assignment)] = true
	}
	if len(assignments) < 2 {
		t.Fatal("assignment identical across 8 runs; farm is not racing")
	}
}

// TestRecordReplayReproducesAssignment: replaying the record reproduces
// both the order-sensitive reduction and the full task→worker assignment.
func TestRecordReplayReproducesAssignment(t *testing.T) {
	const n = 5
	params := Params{Tasks: 40}
	w := simmpi.NewWorld(n, simmpi.Options{Seed: 77, MaxJitter: 8})
	files := make([][]byte, n)
	var recorded Result
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 16})
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), enc, record.Options{})
		r, rerr := Run(rec, params)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		mu.Lock()
		files[rank] = buf.Bytes()
		if rank == 0 {
			recorded = r
		}
		mu.Unlock()
		return rerr
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	w2 := simmpi.NewWorld(n, simmpi.Options{Seed: 999, MaxJitter: 8})
	err = w2.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := replay.Open(lamport.WrapManual(mpi), replay.RecordBytes(files[rank]), replay.Options{})
		if err != nil {
			return err
		}
		defer rp.Close()
		r, rerr := Run(rp, params)
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		if verr := rp.Verify(); verr != nil {
			return fmt.Errorf("rank %d: %w", rank, verr)
		}
		if rank == 0 {
			if r.Reduction != recorded.Reduction {
				return fmt.Errorf("reduction %v != recorded %v", r.Reduction, recorded.Reduction)
			}
			if !reflect.DeepEqual(r.Assignment, recorded.Assignment) {
				return fmt.Errorf("assignment diverged:\n got %v\nwant %v", r.Assignment, recorded.Assignment)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
}
