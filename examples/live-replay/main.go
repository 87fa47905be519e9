// Live replay: stream a recorded run back as a paced feed — a time machine
// over the record, with pause, seek and rate control.
//
// The demo records the usual racing-senders exchange with a flush cadence
// (so the record carries several epoch cuts), then opens a cdc.OpenFeed
// over rank 0's record:
//
//   - two subscribers attach before playback starts and receive the exact
//     same event sequence (fan-out);
//   - playback pauses mid-stream and resumes without losing position;
//   - a Seek jumps the feed back to an earlier epoch boundary, announced
//     in-band by a seek marker;
//   - a third, deliberately lazy subscriber with a tiny queue under the
//     Drop policy shows gap markers accounting for what it missed.
//
// Run:
//
//	go run ./examples/live-replay
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cdcreplay/cdc"
	"cdcreplay/internal/simmpi"
)

const (
	ranks         = 4
	msgsPerSender = 40
)

// app is the recorded program: rank 0 receives racing messages with
// AnySource, the wildcard the recorder disambiguates.
func app(mpi simmpi.MPI) error {
	if mpi.Rank() != 0 {
		for i := 0; i < msgsPerSender; i++ {
			msg := fmt.Sprintf("w%d/%d", mpi.Rank(), i)
			if err := mpi.Send(0, 1, []byte(msg)); err != nil {
				return err
			}
		}
		return nil
	}
	for n := 0; n < (ranks-1)*msgsPerSender; n++ {
		req, err := mpi.Irecv(simmpi.AnySource, 1)
		if err != nil {
			return err
		}
		if _, err := mpi.Wait(req); err != nil {
			return err
		}
	}
	return nil
}

// tail drains a subscription, tallying event kinds and remembering the
// order of flush clocks it saw.
func tail(name string, sub *cdc.FeedSubscription, wg *sync.WaitGroup, out *summary) {
	defer wg.Done()
	for {
		ev, ok := sub.Recv()
		if !ok {
			return
		}
		if ev.Kind != cdc.FeedGap {
			out.accepted++
		}
		switch ev.Kind {
		case cdc.FeedFrame:
			out.frames++
		case cdc.FeedFlush:
			out.flushes = append(out.flushes, ev.Clock)
		case cdc.FeedSeek:
			fmt.Printf("  [%s] seek marker -> epoch %d\n", name, ev.Epoch)
		case cdc.FeedGap:
			out.gapped += ev.Dropped
			fmt.Printf("  [%s] gap marker: %d releases dropped\n", name, ev.Dropped)
		case cdc.FeedEnd:
			if ev.Err != "" {
				log.Fatalf("[%s] feed ended with error: %s", name, ev.Err)
			}
		}
	}
}

type summary struct {
	accepted uint64
	frames   int
	flushes  []uint64
	gapped   uint64
}

func main() {
	tmp, err := os.MkdirTemp("", "cdc-live-replay-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "rec")

	// --- Record with a flush cadence so the record has epochs -----------
	world := simmpi.NewWorld(ranks, simmpi.Options{Seed: 7, MaxJitter: 10})
	_, err = cdc.Record(world, func(rank int, mpi simmpi.MPI) error {
		return app(mpi)
	}, cdc.WithDir(dir), cdc.WithApp("live-replay"), cdc.WithFlushEveryRows(32))
	if err != nil {
		log.Fatalf("record run: %v", err)
	}

	// --- Open the feed paused so every subscriber sees the head ---------
	f, err := cdc.OpenFeed(
		cdc.WithDir(dir), cdc.WithApp("live-replay"),
		cdc.WithFeedRate(1), cdc.WithFeedInterval(500*time.Microsecond),
		cdc.WithSlowConsumer(cdc.FeedDrop), cdc.WithSubscriberBuffer(4),
		cdc.WithFeedPaused(),
	)
	if err != nil {
		log.Fatalf("open feed: %v", err)
	}
	defer f.Close()
	fmt.Printf("feed over rank 0: %d epoch boundaries\n", f.Epochs())

	var wg sync.WaitGroup
	var a, b summary
	subA, err := f.Subscribe()
	if err != nil {
		log.Fatal(err)
	}
	subB, err := f.Subscribe()
	if err != nil {
		log.Fatal(err)
	}
	lazy, err := f.Subscribe() // never drained until the stream ends
	if err != nil {
		log.Fatal(err)
	}
	wg.Add(2)
	go tail("A", subA, &wg, &a)
	go tail("B", subB, &wg, &b)

	// --- Pause / resume, rate change, and an epoch seek ------------------
	// The feed runs on the wall clock here, so a control can race the end
	// of the stream; ErrFeedClosed on a control just means playback beat
	// us to the finish line.
	ctrl := func(name string, err error) {
		if err != nil && !errors.Is(err, cdc.ErrFeedClosed) {
			log.Fatalf("%s: %v", name, err)
		}
	}
	ctrl("resume", f.Resume())
	time.Sleep(5 * time.Millisecond)
	ctrl("pause", f.Pause())
	fmt.Printf("paused mid-stream at epoch %d (%d releases so far)\n",
		f.Stats().Epoch, f.Stats().Released)
	ctrl("set rate", f.SetRate(cdc.FeedRateMax))
	if f.Epochs() > 1 {
		ctrl("seek", f.Seek(1))
		fmt.Println("seeked back to epoch 1; resuming at max rate")
	}
	ctrl("resume", f.Resume())
	wg.Wait()

	// --- The lazy subscriber: gaps account for everything it missed ------
	var lazySeen summary
	wg.Add(1)
	tail("lazy", lazy, &wg, &lazySeen)

	s := f.Stats()
	fmt.Printf("\nsubscriber A: %d frames, flush clocks %v\n", a.frames, a.flushes)
	fmt.Printf("subscriber B: %d frames, flush clocks %v\n", b.frames, b.flushes)
	fmt.Printf("lazy subscriber: %d events taken, %d marked dropped in gaps, %d dropped unannounced\n",
		lazySeen.frames+len(lazySeen.flushes), lazySeen.gapped, lazy.Dropped())
	fmt.Printf("feed stats: %d released, %d drops\n", s.Released, s.Drops)

	// Under the Drop policy the fan-out guarantee is not "lossless" but
	// "nothing vanishes silently": every release is either accepted,
	// covered by a delivered gap marker, or still pending in the
	// subscription's drop counter.
	for _, c := range []struct {
		name string
		sum  *summary
		sub  *cdc.FeedSubscription
	}{{"A", &a, subA}, {"B", &b, subB}, {"lazy", &lazySeen, lazy}} {
		got := c.sum.accepted + c.sum.gapped + c.sub.Dropped()
		if got != s.Released {
			log.Fatalf("subscriber %s accounts for %d of %d releases!", c.name, got, s.Released)
		}
	}
	fmt.Println("every subscriber accounts for every release")
}
