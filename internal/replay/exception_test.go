package replay

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
)

// TestBoundaryInversionException forces the Fig. 3 same-sender inversion to
// straddle a chunk boundary: with one event per chunk, the app-observed
// order [msg2, msg1] puts msg2 (larger clock) in chunk 0 and msg1 (smaller
// clock) in chunk 1, where window membership alone would misassign msg1 to
// chunk 0. The encoder's exception entry must pin it to chunk 1.
func TestBoundaryInversionException(t *testing.T) {
	theApp := func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() == 1 {
			if err := mpi.Send(0, 1, []byte("msg1")); err != nil {
				return nil, err
			}
			return nil, mpi.Send(0, 1, []byte("msg2"))
		}
		req1, err := mpi.Irecv(simmpi.AnySource, 1)
		if err != nil {
			return nil, err
		}
		req2, err := mpi.Irecv(simmpi.AnySource, 1)
		if err != nil {
			return nil, err
		}
		var obs []observation
		for _, req := range []*simmpi.Request{req2, req1} {
			st, err := mpi.Wait(req)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
		}
		return obs, nil
	}

	w := simmpi.NewWorld(2, simmpi.Options{Seed: 31, MaxJitter: 4})
	var want []observation
	files := make([][]byte, 2)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 1})
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), enc, record.Options{})
		got, aerr := theApp(rec)
		if cerr := rec.Close(); aerr == nil {
			aerr = cerr
		}
		mu.Lock()
		if rank == 0 {
			want = got
		}
		files[rank] = buf.Bytes()
		mu.Unlock()
		return aerr
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	// The record must contain an exception entry for the inverted message.
	excs := 0
	for _, c := range recordChunks(t, files[0]) {
		excs += len(c.Exceptions)
	}
	if excs != 1 {
		t.Fatalf("expected 1 boundary-inversion exception, found %d", excs)
	}

	w2 := simmpi.NewWorld(2, simmpi.Options{Seed: 77, MaxJitter: 4})
	err = w2.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := Open(lamport.WrapManual(mpi), RecordBytes(files[rank]), Options{})
		if err != nil {
			return err
		}
		defer rp.Close()
		got, aerr := theApp(rp)
		if aerr != nil {
			return fmt.Errorf("rank %d: %w", rank, aerr)
		}
		if verr := rp.Verify(); verr != nil {
			return fmt.Errorf("rank %d: %w", rank, verr)
		}
		if rank == 0 && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("replay %v != record %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
}
