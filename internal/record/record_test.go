package record

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// collector is a Sink capturing the raw event stream.
type collector struct {
	mu     sync.Mutex
	events []struct {
		cs uint64
		ev tables.Event
	}
	names  map[uint64]string
	closed bool
}

func newCollector() *collector { return &collector{names: map[uint64]string{}} }

func (c *collector) Observe(cs uint64, ev tables.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, struct {
		cs uint64
		ev tables.Event
	}{cs, ev})
	return nil
}

func (c *collector) RegisterCallsite(id uint64, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names[id] = name
	return nil
}

func (c *collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *collector) FlushAll(uint64) error { return nil }

func (c *collector) NoteCollective(uint64) {}

func TestRecorderCapturesQuintuple(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 1, MaxJitter: 0})
	col := newCollector()
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 0 {
			l := lamport.Wrap(mpi)
			if err := l.Barrier(); err != nil {
				return err
			}
			return l.Send(1, 5, []byte("x"))
		}
		rec := New(lamport.Wrap(mpi), col, Options{})
		req, err := rec.Irecv(simmpi.AnySource, 5)
		if err != nil {
			return err
		}
		// One polling loop (one MF callsite). The first three polls run
		// before the sender is released by the barrier, so they must be
		// unmatched and aggregate into one count row.
		for i := 0; ; i++ {
			ok, st, err := rec.Test(req)
			if err != nil {
				return err
			}
			if ok {
				if st.Source != 0 || string(st.Data) != "x" {
					return fmt.Errorf("bad status %+v", st)
				}
				break
			}
			if i == 2 {
				if err := rec.Barrier(); err != nil {
					return err
				}
			}
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !col.closed {
		t.Fatal("backend not closed")
	}
	if len(col.events) != 2 {
		t.Fatalf("got %d rows, want 2 (one unmatched run, one match): %+v", len(col.events), col.events)
	}
	un := col.events[0].ev
	if un.Flag || un.Count < 3 {
		t.Fatalf("first row should aggregate >=3 unmatched tests: %+v", un)
	}
	m := col.events[1].ev
	if !m.Flag || m.Rank != 0 || m.Count != 1 {
		t.Fatalf("matched row wrong: %+v", m)
	}
	if len(col.names) != 1 {
		t.Fatalf("callsite names = %v", col.names)
	}
	for _, name := range col.names {
		if name == "" {
			t.Fatal("empty callsite name")
		}
	}
}

func TestRecorderGroupsTestsomeCompletions(t *testing.T) {
	w := simmpi.NewWorld(3, simmpi.Options{Seed: 2, MaxJitter: 0})
	col := newCollector()
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() > 0 {
			l := lamport.Wrap(mpi)
			if err := l.Send(0, 1, nil); err != nil {
				return err
			}
			return l.Barrier()
		}
		rec := New(lamport.Wrap(mpi), col, Options{})
		reqs := make([]*simmpi.Request, 2)
		var err error
		for i := range reqs {
			if reqs[i], err = rec.Irecv(i+1, 1); err != nil {
				return err
			}
		}
		if err := rec.Barrier(); err != nil {
			return err
		}
		got := 0
		for got < 2 {
			idxs, _, err := rec.Testsome(reqs)
			if err != nil {
				return err
			}
			got += len(idxs)
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	var matched []tables.Event
	for _, e := range col.events {
		if e.ev.Flag {
			matched = append(matched, e.ev)
		}
	}
	if len(matched) != 2 {
		t.Fatalf("matched rows = %d", len(matched))
	}
	// If both completed in one call, the first row must chain via
	// with_next; if they completed separately, neither may.
	if matched[0].WithNext && matched[1].WithNext {
		t.Fatalf("final row of a group has with_next set: %+v", matched)
	}
}

func TestRecorderDistinguishesCallsites(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 3, MaxJitter: 0})
	col := newCollector()
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 1 {
			l := lamport.Wrap(mpi)
			if err := l.Send(0, 1, nil); err != nil {
				return err
			}
			return l.Send(0, 2, nil)
		}
		rec := New(lamport.Wrap(mpi), col, Options{})
		r1, _ := rec.Irecv(1, 1)
		r2, _ := rec.Irecv(1, 2)
		if _, err := rec.Wait(r1); err != nil { // callsite A
			return err
		}
		if _, err := rec.Wait(r2); err != nil { // callsite B
			return err
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := map[uint64]bool{}
	for _, e := range col.events {
		cs[e.cs] = true
	}
	if len(cs) != 2 {
		t.Fatalf("expected 2 callsites, got %d", len(cs))
	}
}

func TestRecorderDisableMFIDMergesStreams(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 4, MaxJitter: 0})
	col := newCollector()
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 1 {
			l := lamport.Wrap(mpi)
			if err := l.Send(0, 1, nil); err != nil {
				return err
			}
			return l.Send(0, 2, nil)
		}
		rec := New(lamport.Wrap(mpi), col, Options{DisableMFID: true})
		r1, _ := rec.Irecv(1, 1)
		r2, _ := rec.Irecv(1, 2)
		if _, err := rec.Wait(r1); err != nil {
			return err
		}
		if _, err := rec.Wait(r2); err != nil {
			return err
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range col.events {
		if e.cs != 0 {
			t.Fatalf("MFID disabled but callsite %#x recorded", e.cs)
		}
	}
}

func TestRecorderFlushesTrailingUnmatchedOnClose(t *testing.T) {
	w := simmpi.NewWorld(1, simmpi.Options{Seed: 5})
	col := newCollector()
	err := w.Run(func(mpi simmpi.MPI) error {
		rec := New(lamport.Wrap(mpi), col, Options{})
		req, _ := rec.Irecv(simmpi.AnySource, 1)
		for i := 0; i < 4; i++ {
			if _, _, err := rec.Test(req); err != nil {
				return err
			}
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.events) != 1 {
		t.Fatalf("rows = %d, want 1 trailing unmatched run", len(col.events))
	}
	if ev := col.events[0].ev; ev.Flag || ev.Count != 4 {
		t.Fatalf("trailing run = %+v", ev)
	}
}

func TestDoubleCloseErrors(t *testing.T) {
	w := simmpi.NewWorld(1, simmpi.Options{Seed: 6})
	rec := New(lamport.Wrap(w.Comm(0)), newCollector(), Options{})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}
}

func TestRecorderStats(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 7, MaxJitter: 0})
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 1 {
			return lamport.Wrap(mpi).Send(0, 1, nil)
		}
		var buf bytes.Buffer
		enc, err := core.NewEncoder(&buf, core.EncoderOptions{})
		if err != nil {
			return err
		}
		rec := New(lamport.Wrap(mpi), enc, Options{})
		req, _ := rec.Irecv(1, 1)
		if _, err := rec.Wait(req); err != nil {
			return err
		}
		if err := rec.Close(); err != nil {
			return err
		}
		if rec.Stats().Enqueued != 1 {
			return fmt.Errorf("enqueued = %d", rec.Stats().Enqueued)
		}
		if buf.Len() == 0 {
			return errors.New("no record bytes written")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecorderAllMFWrappers drives every MF family and collective through
// the recorder, checking the event stream stays consistent.
func TestRecorderAllMFWrappers(t *testing.T) {
	w := simmpi.NewWorld(3, simmpi.Options{Seed: 8, MaxJitter: 0})
	col := newCollector()
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() > 0 {
			l := lamport.Wrap(mpi)
			for i := 0; i < 5; i++ {
				if err := l.Send(0, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			if err := l.Barrier(); err != nil {
				return err
			}
			if _, err := l.Allreduce(1, simmpi.OpSum); err != nil {
				return err
			}
			if _, err := l.Reduce(1, simmpi.OpSum, 0); err != nil {
				return err
			}
			if _, err := l.Bcast(nil, 0); err != nil {
				return err
			}
			if _, err := l.Gather(1, 0); err != nil {
				return err
			}
			_, err := l.Allgather(1)
			return err
		}
		rec := New(lamport.Wrap(mpi), col, Options{})
		post := func() *simmpi.Request {
			req, err := rec.Irecv(simmpi.AnySource, 1)
			if err != nil {
				t.Error(err)
			}
			return req
		}
		got := 0
		reqs := []*simmpi.Request{post(), post()}
		for got < 2 {
			i, ok, _, err := rec.Testany(reqs)
			if err != nil {
				return err
			}
			if ok {
				got++
				reqs[i] = post()
			}
		}
		for got < 4 {
			ok, sts, err := rec.Testall(reqs)
			if err != nil {
				return err
			}
			if ok {
				got += len(sts)
				reqs = []*simmpi.Request{post(), post()}
			}
		}
		i, _, err := rec.Waitany(reqs)
		if err != nil {
			return err
		}
		got++
		reqs = append(reqs[:i], reqs[i+1:]...)
		idxs, _, err := rec.Waitsome(reqs)
		if err != nil {
			return err
		}
		got += len(idxs)
		remaining := 10 - got
		var tail []*simmpi.Request
		for k := 0; k < remaining; k++ {
			tail = append(tail, post())
		}
		if _, err := rec.Waitall(tail); err != nil {
			return err
		}
		if err := rec.Barrier(); err != nil {
			return err
		}
		if _, err := rec.Allreduce(1, simmpi.OpSum); err != nil {
			return err
		}
		if _, err := rec.Reduce(1, simmpi.OpSum, 0); err != nil {
			return err
		}
		if _, err := rec.Bcast([]byte("b"), 0); err != nil {
			return err
		}
		if _, err := rec.Gather(1, 0); err != nil {
			return err
		}
		if _, err := rec.Allgather(1); err != nil {
			return err
		}
		if rec.Size() != 3 || rec.Rank() != 0 {
			return errors.New("rank/size wrong")
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, e := range col.events {
		if e.ev.Flag {
			matched++
			if e.ev.Clock == 0 {
				t.Fatalf("matched row without clock: %+v", e.ev)
			}
		}
	}
	if matched != 10 {
		t.Fatalf("recorded %d matched events, want 10", matched)
	}
}

// TestPeriodicFlush: with a flush interval, chunks reach storage while the
// recorder is idle, well before Close.
func TestPeriodicFlush(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 9, MaxJitter: 0})
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 1 {
			return lamport.Wrap(mpi).Send(0, 1, nil)
		}
		var buf bytes.Buffer
		var mu sync.Mutex
		lockedWriter := writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(p)
		})
		enc, err := core.NewEncoder(lockedWriter, core.EncoderOptions{})
		if err != nil {
			return err
		}
		rec := New(lamport.Wrap(mpi), enc, Options{
			FlushInterval: 5 * time.Millisecond,
		})
		req, _ := rec.Irecv(1, 1)
		if _, err := rec.Wait(req); err != nil {
			return err
		}
		// Idle-wait: the CDC goroutine must flush the pending chunk.
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := buf.Len()
			mu.Unlock()
			if n > len(core.Magic)+10 { // magic + gzip header alone is ~30B; wait for growth
				break
			}
			if time.Now().After(deadline) {
				return errors.New("no periodic flush happened")
			}
			time.Sleep(time.Millisecond)
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestQueueItemHoldsNoPointers: the observe queue is a ring of
// QueueCapacity items per rank (4 MiB-scale at the default). A pointer in
// the item makes the garbage collector zero and scan all of it.
func TestQueueItemHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk("queueItem", reflect.TypeOf(queueItem{}))
}

// TestCollectiveClockReachesMarks: the clock a rank leaves a collective
// with is stamped into every later flush-point mark, and into none before.
func TestCollectiveClockReachesMarks(t *testing.T) {
	var buf bytes.Buffer
	var left uint64
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 3})
	err := w.Run(func(mpi simmpi.MPI) error {
		lam := lamport.Wrap(mpi)
		if mpi.Rank() == 1 {
			if err := lam.Send(0, 1, nil); err != nil {
				return err
			}
			if _, err := lam.Allreduce(1, simmpi.OpSum); err != nil {
				return err
			}
			return lam.Send(0, 1, nil)
		}
		enc, err := core.NewEncoder(&buf, core.EncoderOptions{})
		if err != nil {
			return err
		}
		rec := New(lam, enc, Options{FlushEveryRows: 1})
		for i := 0; i < 2; i++ {
			if i == 1 {
				if _, err := rec.Allreduce(1, simmpi.OpSum); err != nil {
					return err
				}
				left = lam.Clock()
			}
			req, err := rec.Irecv(1, 1)
			if err != nil {
				return err
			}
			if _, err := rec.Wait(req); err != nil {
				return err
			}
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := core.NewFrameReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var colls []uint64
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Flush {
			colls = append(colls, f.CollClock)
		}
	}
	if want := []uint64{0, left, left}; left == 0 || !reflect.DeepEqual(colls, want) {
		t.Fatalf("mark collective clocks %v, want %v", colls, want)
	}
}
