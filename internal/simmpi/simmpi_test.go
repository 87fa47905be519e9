package simmpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBasicSendRecv(t *testing.T) {
	w := NewWorld(2, Options{Seed: 1})
	err := w.Run(func(mpi MPI) error {
		switch mpi.Rank() {
		case 0:
			return mpi.Send(1, 7, []byte("hello"))
		case 1:
			req, err := mpi.Irecv(0, 7)
			if err != nil {
				return err
			}
			st, err := mpi.Wait(req)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 7 || string(st.Data) != "hello" {
				return fmt.Errorf("bad status: %+v", st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	w := NewWorld(1, Options{})
	c := w.Comm(0)
	if err := c.Send(5, 0, nil); err == nil {
		t.Error("send to out-of-range rank succeeded")
	}
	if err := c.Send(0, -2, nil); err == nil {
		t.Error("send with negative tag succeeded")
	}
	if _, err := c.Irecv(9, 0); err == nil {
		t.Error("recv from out-of-range rank succeeded")
	}
}

func TestPayloadIsCopied(t *testing.T) {
	w := NewWorld(2, Options{Seed: 1})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := mpi.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the delivered message
			return nil
		}
		req, _ := mpi.Irecv(0, 0)
		st, err := mpi.Wait(req)
		if err != nil {
			return err
		}
		if st.Data[0] != 1 {
			return fmt.Errorf("payload aliased sender buffer: %v", st.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Messages from one sender must be received in send order when matched by a
// sequence of compatible receives (MPI non-overtaking).
func TestPerSenderFIFO(t *testing.T) {
	const n = 200
	w := NewWorld(2, Options{Seed: 3, MaxJitter: 16})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := mpi.Send(1, 0, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			req, _ := mpi.Irecv(0, 0)
			st, err := mpi.Wait(req)
			if err != nil {
				return err
			}
			if st.Data[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, st.Data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The Fig. 3 binding property: with two wildcard receives posted in order
// and two messages from the same sender, the first-posted receive gets the
// first-sent message even if the application tests them out of order.
func TestPostedOrderBinding(t *testing.T) {
	w := NewWorld(2, Options{Seed: 5})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			mpi.Send(1, 1, []byte("msg1"))
			mpi.Send(1, 1, []byte("msg2"))
			return nil
		}
		req1, _ := mpi.Irecv(AnySource, AnyTag)
		req2, _ := mpi.Irecv(AnySource, AnyTag)
		// Test req2 first, emulating the out-of-order notification in
		// Fig. 3: whatever completes, req1 must hold msg1.
		st2, err := mpi.Wait(req2)
		if err != nil {
			return err
		}
		st1, err := mpi.Wait(req1)
		if err != nil {
			return err
		}
		if string(st1.Data) != "msg1" || string(st2.Data) != "msg2" {
			return fmt.Errorf("binding violated: req1=%q req2=%q", st1.Data, st2.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// Message arrives before the receive is posted.
	w := NewWorld(2, Options{Seed: 2, MaxJitter: 0})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			if err := mpi.Send(1, 3, []byte("early")); err != nil {
				return err
			}
			return mpi.Barrier()
		}
		if err := mpi.Barrier(); err != nil {
			return err
		}
		// Force delivery into the unexpected queue before posting: drain
		// until the in-flight message lands (MaxJitter 0 means the next
		// poll after the barrier delivers it).
		c := mpi.(*Comm)
		deadline := time.Now().Add(5 * time.Second)
		for c.unexpected.len() == 0 {
			if time.Now().After(deadline) {
				return errors.New("message never arrived in unexpected queue")
			}
			c.poll()
		}
		if c.unexpected.len() != 1 {
			return fmt.Errorf("unexpected queue has %d entries", c.unexpected.len())
		}
		req, _ := mpi.Irecv(AnySource, 3)
		if !req.Matched() {
			return errors.New("posted receive did not match unexpected message")
		}
		st, err := mpi.Wait(req)
		if err != nil {
			return err
		}
		if string(st.Data) != "early" {
			return fmt.Errorf("got %q", st.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	w := NewWorld(2, Options{Seed: 4, MaxJitter: 0})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			mpi.Send(1, 10, []byte("ten"))
			mpi.Send(1, 20, []byte("twenty"))
			return nil
		}
		// Post the tag-20 receive first; it must not take the tag-10
		// message even though that was sent first.
		req20, _ := mpi.Irecv(0, 20)
		req10, _ := mpi.Irecv(0, 10)
		st20, err := mpi.Wait(req20)
		if err != nil {
			return err
		}
		st10, err := mpi.Wait(req10)
		if err != nil {
			return err
		}
		if string(st20.Data) != "twenty" || string(st10.Data) != "ten" {
			return fmt.Errorf("tag matching wrong: %q %q", st20.Data, st10.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceGathersAll(t *testing.T) {
	const senders = 7
	w := NewWorld(senders+1, Options{Seed: 6, MaxJitter: 10})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() > 0 {
			return mpi.Send(0, 0, []byte{byte(mpi.Rank())})
		}
		seen := map[byte]bool{}
		for i := 0; i < senders; i++ {
			req, _ := mpi.Irecv(AnySource, AnyTag)
			st, err := mpi.Wait(req)
			if err != nil {
				return err
			}
			if seen[st.Data[0]] {
				return fmt.Errorf("duplicate message from %d", st.Data[0])
			}
			if int(st.Data[0]) != st.Source {
				return fmt.Errorf("source %d delivered payload %d", st.Source, st.Data[0])
			}
			seen[st.Data[0]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestUnmatchedThenMatched(t *testing.T) {
	w := NewWorld(2, Options{Seed: 8, MaxJitter: 0})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			if err := mpi.Barrier(); err != nil {
				return err
			}
			return mpi.Send(1, 0, []byte("x"))
		}
		req, _ := mpi.Irecv(0, 0)
		ok, _, err := mpi.Test(req)
		if err != nil {
			return err
		}
		if ok {
			return errors.New("Test matched before anything was sent")
		}
		if err := mpi.Barrier(); err != nil {
			return err
		}
		for {
			ok, st, err := mpi.Test(req)
			if err != nil {
				return err
			}
			if ok {
				if string(st.Data) != "x" {
					return fmt.Errorf("got %q", st.Data)
				}
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleCompleteIsError(t *testing.T) {
	w := NewWorld(2, Options{Seed: 9})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 0 {
			return mpi.Send(1, 0, nil)
		}
		req, _ := mpi.Irecv(0, 0)
		if _, err := mpi.Wait(req); err != nil {
			return err
		}
		if _, err := mpi.Wait(req); !errors.Is(err, ErrConsumed) {
			return fmt.Errorf("second Wait err = %v, want ErrConsumed", err)
		}
		if _, _, err := mpi.Test(req); !errors.Is(err, ErrConsumed) {
			return fmt.Errorf("Test after Wait err = %v, want ErrConsumed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestsomeMultipleCompletions(t *testing.T) {
	const senders = 5
	w := NewWorld(senders+1, Options{Seed: 11, MaxJitter: 0})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() > 0 {
			return mpi.Send(0, 0, []byte{byte(mpi.Rank())})
		}
		reqs := make([]*Request, senders)
		for i := range reqs {
			reqs[i], _ = mpi.Irecv(i+1, 0)
		}
		got := 0
		for got < senders {
			idxs, sts, err := mpi.Testsome(reqs)
			if err != nil {
				return err
			}
			if len(idxs) != len(sts) {
				return fmt.Errorf("idxs/sts length mismatch")
			}
			for k, i := range idxs {
				if sts[k].Source != i+1 {
					return fmt.Errorf("request %d completed with source %d", i, sts[k].Source)
				}
			}
			got += len(idxs)
		}
		// All consumed: another Testsome must return nothing.
		idxs, _, err := mpi.Testsome(reqs)
		if err != nil {
			return err
		}
		if len(idxs) != 0 {
			return fmt.Errorf("consumed requests completed again: %v", idxs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitanyAndWaitsome(t *testing.T) {
	w := NewWorld(3, Options{Seed: 12})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() > 0 {
			return mpi.Send(0, 0, []byte{byte(mpi.Rank())})
		}
		reqs := []*Request{}
		for s := 1; s <= 2; s++ {
			r, _ := mpi.Irecv(s, 0)
			reqs = append(reqs, r)
		}
		i, st, err := mpi.Waitany(reqs)
		if err != nil {
			return err
		}
		if st.Source != i+1 {
			return fmt.Errorf("waitany idx %d source %d", i, st.Source)
		}
		idxs, sts, err := mpi.Waitsome(reqs)
		if err != nil {
			return err
		}
		if len(idxs) != 1 || sts[0].Source != idxs[0]+1 {
			return fmt.Errorf("waitsome got %v %v", idxs, sts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallStatusOrder(t *testing.T) {
	w := NewWorld(4, Options{Seed: 13, MaxJitter: 12})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() > 0 {
			return mpi.Send(0, 0, []byte{byte(mpi.Rank())})
		}
		reqs := make([]*Request, 3)
		for i := range reqs {
			reqs[i], _ = mpi.Irecv(i+1, 0)
		}
		sts, err := mpi.Waitall(reqs)
		if err != nil {
			return err
		}
		for i, st := range sts {
			if st.Source != i+1 {
				return fmt.Errorf("status %d has source %d", i, st.Source)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	w := NewWorld(n, Options{Seed: 14})
	var mu sync.Mutex
	phase1 := 0
	err := w.Run(func(mpi MPI) error {
		mu.Lock()
		phase1++
		mu.Unlock()
		if err := mpi.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if phase1 != n {
			return fmt.Errorf("rank %d passed barrier with %d arrivals", mpi.Rank(), phase1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	const n = 6
	w := NewWorld(n, Options{Seed: 15})
	err := w.Run(func(mpi MPI) error {
		v := float64(mpi.Rank() + 1)
		sum, err := mpi.Allreduce(v, OpSum)
		if err != nil {
			return err
		}
		if sum != 21 {
			return fmt.Errorf("sum = %v", sum)
		}
		max, err := mpi.Allreduce(v, OpMax)
		if err != nil {
			return err
		}
		if max != 6 {
			return fmt.Errorf("max = %v", max)
		}
		min, err := mpi.Allreduce(v, OpMin)
		if err != nil {
			return err
		}
		if min != 1 {
			return fmt.Errorf("min = %v", min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitTimeoutOnDeadlock(t *testing.T) {
	w := NewWorld(1, Options{Seed: 16, WaitTimeout: 50 * time.Millisecond})
	err := w.Run(func(mpi MPI) error {
		req, _ := mpi.Irecv(AnySource, AnyTag) // nobody will ever send
		_, err := mpi.Wait(req)
		return err
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPanicInRankIsReported(t *testing.T) {
	w := NewWorld(2, Options{Seed: 17})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic was swallowed")
	}
}

// TestCrossSenderNondeterminism demonstrates the phenomenon CDC exists for:
// with several senders racing, the ANY_SOURCE receive order differs across
// runs.
func TestCrossSenderNondeterminism(t *testing.T) {
	const senders, trials = 6, 30
	orders := map[string]bool{}
	for trial := 0; trial < trials; trial++ {
		w := NewWorld(senders+1, Options{Seed: int64(trial), MaxJitter: 10})
		var order []byte
		err := w.Run(func(mpi MPI) error {
			if mpi.Rank() > 0 {
				return mpi.Send(0, 0, []byte{byte(mpi.Rank())})
			}
			for i := 0; i < senders; i++ {
				req, _ := mpi.Irecv(AnySource, AnyTag)
				st, err := mpi.Wait(req)
				if err != nil {
					return err
				}
				order = append(order, byte(st.Source))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]byte(nil), order...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if string(sorted) != "\x01\x02\x03\x04\x05\x06" {
			t.Fatalf("lost or duplicated messages: %v", order)
		}
		orders[string(order)] = true
	}
	if len(orders) < 2 {
		t.Fatalf("receive order was identical across %d trials; substrate is not non-deterministic", trials)
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2, Options{Seed: 1, MaxJitter: 0})
	b.ResetTimer()
	err := w.Run(func(mpi MPI) error {
		peer := 1 - mpi.Rank()
		for i := 0; i < b.N; i++ {
			if mpi.Rank() == 0 {
				if err := mpi.Send(peer, 0, []byte{1}); err != nil {
					return err
				}
				req, _ := mpi.Irecv(peer, 0)
				if _, err := mpi.Wait(req); err != nil {
					return err
				}
			} else {
				req, _ := mpi.Irecv(peer, 0)
				if _, err := mpi.Wait(req); err != nil {
					return err
				}
				if err := mpi.Send(peer, 0, []byte{1}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func TestTestallAllOrNothing(t *testing.T) {
	w := NewWorld(3, Options{Seed: 21, MaxJitter: 0})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 1 {
			// Send immediately; rank 2 sends only after the barrier.
			if err := mpi.Send(0, 0, []byte{1}); err != nil {
				return err
			}
			return mpi.Barrier()
		}
		if mpi.Rank() == 2 {
			if err := mpi.Barrier(); err != nil {
				return err
			}
			return mpi.Send(0, 0, []byte{2})
		}
		reqs := make([]*Request, 2)
		reqs[0], _ = mpi.Irecv(1, 0)
		reqs[1], _ = mpi.Irecv(2, 0)
		// Wait until the first message has certainly arrived, then
		// Testall: it must NOT consume the partial set.
		for !reqs[0].Matched() {
			if _, _, err := mpi.Testsome(nil); err != nil { // drive polling
				return err
			}
		}
		ok, _, err := mpi.Testall(reqs)
		if err != nil {
			return err
		}
		if ok {
			return errors.New("Testall succeeded with only one message arrived")
		}
		if err := mpi.Barrier(); err != nil {
			return err
		}
		for {
			ok, sts, err := mpi.Testall(reqs)
			if err != nil {
				return err
			}
			if ok {
				if sts[0].Source != 1 || sts[1].Source != 2 {
					return fmt.Errorf("statuses out of request order: %+v", sts)
				}
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestallConsumedRequestIsError(t *testing.T) {
	w := NewWorld(2, Options{Seed: 22})
	err := w.Run(func(mpi MPI) error {
		if mpi.Rank() == 1 {
			return mpi.Send(0, 0, nil)
		}
		req, _ := mpi.Irecv(1, 0)
		if _, err := mpi.Wait(req); err != nil {
			return err
		}
		if _, _, err := mpi.Testall([]*Request{req}); !errors.Is(err, ErrConsumed) {
			return fmt.Errorf("err = %v, want ErrConsumed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(5, Options{Seed: 40})
	err := w.Run(func(mpi MPI) error {
		var data []byte
		if mpi.Rank() == 2 {
			data = []byte("payload-from-root")
		}
		got, err := mpi.Bcast(data, 2)
		if err != nil {
			return err
		}
		if string(got) != "payload-from-root" {
			return fmt.Errorf("rank %d got %q", mpi.Rank(), got)
		}
		// A second, different broadcast must not be corrupted by the
		// first (publish/consume generations are separated).
		if mpi.Rank() == 0 {
			data = []byte("second")
		}
		got, err = mpi.Bcast(data, 0)
		if err != nil {
			return err
		}
		if string(got) != "second" {
			return fmt.Errorf("rank %d second bcast got %q", mpi.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(0).Bcast(nil, 9); err == nil {
		t.Fatal("bcast from invalid root succeeded")
	}
}

func TestReduceOnlyRootSeesResult(t *testing.T) {
	w := NewWorld(4, Options{Seed: 41})
	err := w.Run(func(mpi MPI) error {
		got, err := mpi.Reduce(float64(mpi.Rank()+1), OpSum, 1)
		if err != nil {
			return err
		}
		want := 0.0
		if mpi.Rank() == 1 {
			want = 10
		}
		if got != want {
			return fmt.Errorf("rank %d got %v want %v", mpi.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAndAllgather(t *testing.T) {
	w := NewWorld(4, Options{Seed: 42})
	err := w.Run(func(mpi MPI) error {
		got, err := mpi.Gather(float64(mpi.Rank()*10), 0)
		if err != nil {
			return err
		}
		if mpi.Rank() == 0 {
			for r, v := range got {
				if v != float64(r*10) {
					return fmt.Errorf("gather[%d] = %v", r, v)
				}
			}
		} else if got != nil {
			return fmt.Errorf("non-root rank %d got %v", mpi.Rank(), got)
		}
		all, err := mpi.Allgather(float64(mpi.Rank() + 100))
		if err != nil {
			return err
		}
		for r, v := range all {
			if v != float64(r+100) {
				return fmt.Errorf("allgather[%d] = %v at rank %d", r, v, mpi.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	w := NewWorld(2, Options{Seed: 60, MaxJitter: 0})
	err := w.Run(func(mpi MPI) error {
		c := mpi.(*Comm)
		if mpi.Rank() == 0 {
			if err := mpi.Send(1, 0, make([]byte, 10)); err != nil {
				return err
			}
			if err := mpi.Send(1, 0, make([]byte, 5)); err != nil {
				return err
			}
			tr := c.Traffic()
			if tr.SentMessages != 2 || tr.SentBytes != 15 {
				return fmt.Errorf("sender traffic = %+v", tr)
			}
			return nil
		}
		for i := 0; i < 2; i++ {
			req, _ := mpi.Irecv(0, 0)
			if _, err := mpi.Wait(req); err != nil {
				return err
			}
		}
		tr := c.Traffic()
		if tr.ReceivedMessages != 2 || tr.ReceivedBytes != 15 {
			return fmt.Errorf("receiver traffic = %+v", tr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
