package lamport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cdcreplay/internal/simmpi"
)

// runWorld runs fn on every rank with a lamport layer stacked on the raw
// endpoint.
func runWorld(t *testing.T, n int, opts simmpi.Options, fn func(l *Layer) error) {
	t.Helper()
	w := simmpi.NewWorld(n, opts)
	if err := w.Run(func(mpi simmpi.MPI) error { return fn(Wrap(mpi)) }); err != nil {
		t.Fatal(err)
	}
}

func TestClockStartsAtInitialClock(t *testing.T) {
	w := simmpi.NewWorld(1, simmpi.Options{})
	l := Wrap(w.Comm(0))
	if l.Clock() != InitialClock {
		t.Fatalf("initial clock = %d, want %d", l.Clock(), InitialClock)
	}
}

func TestSendIncrementsClock(t *testing.T) {
	runWorld(t, 2, simmpi.Options{Seed: 1}, func(l *Layer) error {
		if l.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := l.Send(1, 0, []byte("p")); err != nil {
					return err
				}
			}
			if l.Clock() != InitialClock+3 {
				return fmt.Errorf("clock after 3 sends = %d", l.Clock())
			}
			return nil
		}
		for i := uint64(0); i < 3; i++ {
			req, _ := l.Irecv(0, 0)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			// Definition 4.i: message carries the sender clock before
			// its increment, so clocks are InitialClock, +1, +2.
			if st.Clock != InitialClock+i {
				return fmt.Errorf("message %d carried clock %d", i, st.Clock)
			}
			if string(st.Data) != "p" {
				return fmt.Errorf("payload corrupted: %q", st.Data)
			}
		}
		return nil
	})
}

func TestReceiveAdvancesToMax(t *testing.T) {
	runWorld(t, 2, simmpi.Options{Seed: 2}, func(l *Layer) error {
		switch l.Rank() {
		case 0:
			// Tick our clock far ahead with local sends to ourselves? No
			// self-sends needed: send many messages to advance the clock.
			for i := 0; i < 10; i++ {
				if err := l.Send(1, 1, nil); err != nil {
					return err
				}
			}
			return l.Send(1, 2, nil) // carries clock InitialClock+10
		case 1:
			req, _ := l.Irecv(0, 2)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			// Definition 4.ii: clock := max(received, own)+1.
			if st.Clock != InitialClock+10 || l.Clock() != InitialClock+11 {
				return fmt.Errorf("recv clock %d, own clock %d", st.Clock, l.Clock())
			}
			// Drain the rest so no messages are lost.
			for i := 0; i < 10; i++ {
				r, _ := l.Irecv(0, 1)
				if _, err := l.Wait(r); err != nil {
					return err
				}
			}
			return nil
		}
		return nil
	})
}

func TestHappenedBeforeOrdering(t *testing.T) {
	// A chain 0 → 1 → 2 must carry strictly increasing clocks
	// (Definition 5: e → f implies fc(e) < fc(f)).
	runWorld(t, 3, simmpi.Options{Seed: 3}, func(l *Layer) error {
		switch l.Rank() {
		case 0:
			return l.Send(1, 0, nil)
		case 1:
			req, _ := l.Irecv(0, 0)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			if err := l.Send(2, 0, nil); err != nil {
				return err
			}
			_ = st
			return nil
		case 2:
			req, _ := l.Irecv(1, 0)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			if st.Clock < InitialClock+1 {
				return fmt.Errorf("dependent message clock %d not greater than source's", st.Clock)
			}
			return nil
		}
		return nil
	})
}

func TestPerSenderClocksStrictlyIncrease(t *testing.T) {
	// The (source, clock) message identifier is unique because each
	// sender's attached clocks strictly increase.
	runWorld(t, 2, simmpi.Options{Seed: 4, MaxJitter: 6}, func(l *Layer) error {
		const n = 50
		if l.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := l.Send(1, 0, nil); err != nil {
					return err
				}
			}
			return nil
		}
		last := int64(-1)
		for i := 0; i < n; i++ {
			req, _ := l.Irecv(0, 0)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			if int64(st.Clock) <= last {
				return fmt.Errorf("clock %d did not increase past %d", st.Clock, last)
			}
			last = int64(st.Clock)
		}
		return nil
	})
}

func TestTestsomeUpdatesClockPerCompletion(t *testing.T) {
	runWorld(t, 3, simmpi.Options{Seed: 5, MaxJitter: 0}, func(l *Layer) error {
		if l.Rank() > 0 {
			return l.Send(0, 0, []byte{byte(l.Rank())})
		}
		reqs := make([]*simmpi.Request, 2)
		reqs[0], _ = l.Irecv(1, 0)
		reqs[1], _ = l.Irecv(2, 0)
		got := 0
		deadline := time.Now().Add(5 * time.Second)
		for got < 2 {
			if time.Now().After(deadline) {
				return errors.New("timed out")
			}
			idxs, sts, err := l.Testsome(reqs)
			if err != nil {
				return err
			}
			for k := range idxs {
				if sts[k].Clock != InitialClock {
					return fmt.Errorf("first message from %d has clock %d", sts[k].Source, sts[k].Clock)
				}
			}
			got += len(idxs)
		}
		// Two receives of InitialClock messages: max(1,1)+1 = 2, then
		// max(1,2)+1 = 3.
		if l.Clock() != 3 {
			return fmt.Errorf("clock after 2 receives = %d", l.Clock())
		}
		return nil
	})
}

func TestShortMessageRejected(t *testing.T) {
	// A message sent *below* the lamport layer has no piggyback header;
	// the layer must reject it rather than misparse.
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 6})
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 0 {
			return mpi.Send(1, 0, []byte{1, 2}) // raw send: 2 bytes only
		}
		l := Wrap(mpi)
		req, _ := l.Irecv(0, 0)
		_, err := l.Wait(req)
		if err == nil {
			return errors.New("lamport layer accepted headerless message")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	runWorld(t, 4, simmpi.Options{Seed: 7}, func(l *Layer) error {
		// Rank r sends r messages into the void (to rank (r+1)%4 tag 9)
		// to skew clocks, then everyone barriers.
		for i := 0; i < l.Rank(); i++ {
			if err := l.Send((l.Rank()+1)%4, 9, nil); err != nil {
				return err
			}
		}
		if err := l.Barrier(); err != nil {
			return err
		}
		// Max clock before the barrier is InitialClock+3 (rank 3 sent 3
		// messages), so all clocks must now be InitialClock+4.
		if l.Clock() != InitialClock+4 {
			return fmt.Errorf("rank %d clock after barrier = %d", l.Rank(), l.Clock())
		}
		// Drain pending messages so the world shuts down cleanly.
		prev := (l.Rank() + 3) % 4
		for i := 0; i < prev; i++ {
			req, _ := l.Irecv(prev, 9)
			if _, err := l.Wait(req); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestAllreducePassesValueAndTicksClock(t *testing.T) {
	runWorld(t, 3, simmpi.Options{Seed: 8}, func(l *Layer) error {
		before := l.Clock()
		sum, err := l.Allreduce(1, simmpi.OpSum)
		if err != nil {
			return err
		}
		if sum != 3 {
			return fmt.Errorf("sum = %v", sum)
		}
		if l.Clock() <= before {
			return fmt.Errorf("clock did not advance across allreduce")
		}
		return nil
	})
}

func TestReceiveMaxPolicy(t *testing.T) {
	runWorld(t, 2, simmpi.Options{Seed: 30}, func(l *Layer) error { return nil })
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 31, MaxJitter: 0})
	err := w.Run(func(mpi simmpi.MPI) error {
		l := WrapPolicy(mpi, ReceiveMax)
		if mpi.Rank() == 0 {
			// Two sends: clocks attached 1, 2.
			if err := l.Send(1, 0, nil); err != nil {
				return err
			}
			return l.Send(1, 0, nil)
		}
		for i := uint64(1); i <= 2; i++ {
			req, _ := l.Irecv(0, 0)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			if st.Clock != i {
				return fmt.Errorf("message carried clock %d, want %d", st.Clock, i)
			}
		}
		// ReceiveMax: clock = max(own=1, 1) then max(·, 2) = 2; no +1.
		if l.Clock() != 2 {
			return fmt.Errorf("clock after receives = %d, want 2", l.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPolicySendClocksStillStrictlyIncrease(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 32, MaxJitter: 6})
	err := w.Run(func(mpi simmpi.MPI) error {
		l := WrapPolicy(mpi, ReceiveMax)
		const n = 40
		if l.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := l.Send(1, 0, nil); err != nil {
					return err
				}
			}
			return nil
		}
		last := uint64(0)
		for i := 0; i < n; i++ {
			req, _ := l.Irecv(0, 0)
			st, err := l.Wait(req)
			if err != nil {
				return err
			}
			if st.Clock <= last {
				return fmt.Errorf("clock %d did not increase past %d", st.Clock, last)
			}
			last = st.Clock
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllWrapperPaths drives every MF wrapper and collective through the
// layer on a small gather so the completion hooks all run.
func TestAllWrapperPaths(t *testing.T) {
	runWorld(t, 3, simmpi.Options{Seed: 50, MaxJitter: 0}, func(l *Layer) error {
		if l.Rank() > 0 {
			for i := 0; i < 6; i++ {
				if err := l.Send(0, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			if err := l.Barrier(); err != nil {
				return err
			}
			_, err := l.Allgather(float64(l.Rank()))
			if err != nil {
				return err
			}
			if _, err := l.Reduce(1, simmpi.OpSum, 0); err != nil {
				return err
			}
			if _, err := l.Bcast(nil, 0); err != nil {
				return err
			}
			_, err = l.Gather(2, 0)
			return err
		}
		post := func() *simmpi.Request {
			req, _ := l.Irecv(simmpi.AnySource, 1)
			return req
		}
		got := 0
		// Testany.
		reqs := []*simmpi.Request{post(), post()}
		for got < 2 {
			if i, ok, st, err := l.Testany(reqs); err != nil {
				return err
			} else if ok {
				if st.Clock == 0 {
					return errors.New("missing piggyback clock")
				}
				got++
				reqs[i] = post()
			}
		}
		// Testall (reqs still holds two live receives).
		for {
			ok, sts, err := l.Testall(reqs)
			if err != nil {
				return err
			}
			if ok {
				got += len(sts)
				break
			}
		}
		// Waitany + Waitsome + Waitall.
		reqs = []*simmpi.Request{post(), post()}
		i, _, err := l.Waitany(reqs)
		if err != nil {
			return err
		}
		got++
		reqs[i] = post()
		idxs, _, err := l.Waitsome(reqs)
		if err != nil {
			return err
		}
		got += len(idxs)
		var rest []*simmpi.Request
		for k := range reqs {
			skip := false
			for _, j := range idxs {
				if j == k {
					skip = true
				}
			}
			if !skip {
				rest = append(rest, reqs[k])
			}
		}
		for got < 12 {
			if len(rest) == 0 {
				rest = append(rest, post())
			}
			sts, err := l.Waitall(rest)
			if err != nil {
				return err
			}
			got += len(sts)
			rest = nil
		}
		if err := l.Barrier(); err != nil {
			return err
		}
		all, err := l.Allgather(float64(l.Rank()))
		if err != nil {
			return err
		}
		if len(all) != 3 {
			return fmt.Errorf("allgather = %v", all)
		}
		sum, err := l.Reduce(1, simmpi.OpSum, 0)
		if err != nil {
			return err
		}
		if sum != 3 {
			return fmt.Errorf("reduce = %v", sum)
		}
		data, err := l.Bcast([]byte("hello"), 0)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("bcast = %q", data)
		}
		g, err := l.Gather(2, 0)
		if err != nil {
			return err
		}
		if len(g) != 3 {
			return fmt.Errorf("gather = %v", g)
		}
		if l.Size() != 3 {
			return fmt.Errorf("size = %d", l.Size())
		}
		return nil
	})
}

func TestManualModeDefersTicks(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 51, MaxJitter: 0})
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 0 {
			return Wrap(mpi).Send(1, 0, nil)
		}
		l := WrapManual(mpi)
		req, _ := l.Irecv(0, 0)
		st, err := l.Wait(req)
		if err != nil {
			return err
		}
		if st.Clock != InitialClock {
			return fmt.Errorf("clock header not stripped: %d", st.Clock)
		}
		if l.Clock() != InitialClock {
			return fmt.Errorf("manual layer ticked automatically: %d", l.Clock())
		}
		l.TickReceive(st.Clock)
		if l.Clock() != InitialClock+1 {
			return fmt.Errorf("TickReceive = %d", l.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendAllocatesOnlyPayloadCopy: the piggybacked send builds its header
// and payload in the layer's reused scratch buffer, so the payload copy the
// endpoint below makes is the only allocation, and every delivered message
// still carries its own clock and payload.
func TestSendAllocatesOnlyPayloadCopy(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Delivery: func(dst, src, tag int, seq uint64) uint64 { return 0 }})
	l := Wrap(w.Comm(0))
	payload := make([]byte, 32)
	var sendErr error
	allocs := testing.AllocsPerRun(100, func() {
		payload[0]++
		if err := l.Send(1, 4, payload); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 1 {
		t.Fatalf("Send allocates %.1f times, want 1 (the payload copy below)", allocs)
	}
	recv := WrapManual(w.Comm(1))
	for i := 0; i < 101; i++ { // the warm-up send and the 100 measured
		req, err := recv.Irecv(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		st, err := recv.Wait(req)
		if err != nil {
			t.Fatal(err)
		}
		if st.Clock != InitialClock+uint64(i) || len(st.Data) != len(payload) || st.Data[0] != byte(i+1) {
			t.Fatalf("message %d: clock %d, %d bytes, first byte %d", i, st.Clock, len(st.Data), st.Data[0])
		}
	}
}
