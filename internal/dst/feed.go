package dst

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/feed"
	"cdcreplay/internal/record"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
)

// P6 feed-seek — a live-paced feed seeked to epoch E releases exactly the
// frame stream a batch decode from E yields: same frames, same bytes, same
// order. The property sweeps every epoch boundary of a deterministic
// record across storage backends (seekable and not, so both the indexed
// jump and the skip-loop pipeline reopen are on the hook) and decode
// widths (serial and parallel pipelines), with the feed's start position
// randomized so each seek crosses epochs in both directions.
//
// The feed runs unpaced on a virtual clock, so the whole sweep is free of
// wall-clock waits and the released stream is a pure function of
// (workload, seed, backend, width, start, target).

// FeedConfig parameterizes the P6 exploration.
type FeedConfig struct {
	// Workload names the recorded application (see WorkloadNames).
	// Default "exchange".
	Workload string
	// Seed drives the record phase and the start-epoch randomization.
	Seed int64
	// Short reduces sizes, mirroring go test -short.
	Short bool
}

func (c *FeedConfig) fill() {
	if c.Workload == "" {
		c.Workload = "exchange"
	}
}

// feedBackends are the storage layouts P6 sweeps.
var feedBackends = []string{"dir", "sharded"}

// widths are the decode-worker counts P6 sweeps: serial and two parallel
// widths, one in Short.
func (c FeedConfig) widths() []int {
	if c.Short {
		return []int{0, 2}
	}
	return []int{0, 2, 4}
}

// FeedReport summarizes a P6 exploration.
type FeedReport struct {
	// Checks is how many (backend, width, target-epoch) seeks ran.
	Checks int
	// Epochs is the per-rank epoch-boundary count of the swept record.
	Epochs int
	// Failures holds one line per violated check (empty on success).
	Failures []string
}

// feedStore builds a fresh store for the named backend; the returned
// cleanup releases any on-disk state.
func feedStore(name string) (store.Store, func(), error) {
	root, err := os.MkdirTemp("", "dst-feed-*")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(root) } //cdc:allow(errsink) best-effort temp cleanup
	if name == "dir" {
		return dirstore.New(root), cleanup, nil
	}
	return shardstore.New(root), cleanup, nil
}

// CheckFeed runs the P6 seek-identity property and reports every
// violation.
func CheckFeed(cfg FeedConfig) (*FeedReport, error) {
	cfg.fill()
	wl, err := workloadFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	rep := &FeedReport{}
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, 0x9e6)))
	for _, backend := range feedBackends {
		st, cleanup, err := feedStore(backend)
		if err != nil {
			return nil, err
		}
		err = checkFeedBackend(cfg, backend, wl.ranks, st, rng, rep)
		cleanup()
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkFeedBackend records the workload into st and sweeps every
// (width, epoch) seek on it.
func checkFeedBackend(cfg FeedConfig, backend string, ranks int, st store.Store, rng *rand.Rand, rep *FeedReport) error {
	// Flush denser than the golden cadence so even the short workloads
	// commit several epoch boundaries — without them a seek sweep is
	// vacuous. Every boundary is a seek target below.
	ropts := record.Options{FlushEveryRows: 8}
	if cfg.Short {
		ropts.FlushEveryRows = 4
	}
	if err := DeterministicRecordToOpts(cfg.Workload, cfg.Seed, cfg.Short, core.EncoderOptions{ChunkEvents: 64}, ropts, st); err != nil {
		return fmt.Errorf("%s: record: %w", backend, err)
	}
	m, err := st.Manifest()
	if err != nil {
		return fmt.Errorf("%s: manifest: %w", backend, err)
	}
	for _, width := range cfg.widths() {
		for rank := 0; rank < ranks; rank++ {
			epochs := len(m.RankIndex(rank))
			if epochs == 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s rank %d: record committed no epoch boundaries", backend, rank))
				continue
			}
			if rank == 0 && rep.Epochs == 0 {
				rep.Epochs = epochs
			}
			for target := 0; target <= epochs; target++ {
				// Randomize where playback is when the seek lands, so the
				// pipeline reopen crosses epochs forward and backward.
				start := rng.Intn(epochs + 1)
				rep.Checks++
				got, err := feedSeekDigest(st, rank, width, start, target)
				if err != nil {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"%s rank %d width %d seek %d->%d: feed: %v", backend, rank, width, start, target, err))
					continue
				}
				want, err := batchDigest(st, rank, target)
				if err != nil {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"%s rank %d width %d epoch %d: batch: %v", backend, rank, width, target, err))
					continue
				}
				if got != want {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"%s rank %d width %d seek %d->%d: frame digest %s, batch replay from %d gives %s",
						backend, rank, width, start, target, got[:12], target, want[:12]))
				}
			}
		}
	}
	return nil
}

// frameHasher folds a frame sequence into an order-sensitive digest.
type frameHasher struct{ h hash.Hash }

func newFrameHasher() *frameHasher { return &frameHasher{h: sha256.New()} }

func (fh *frameHasher) frame(kind uint8, payload []byte) {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	fh.h.Write(hdr[:])
	fh.h.Write(payload)
}

func (fh *frameHasher) sum() string { return hex.EncodeToString(fh.h.Sum(nil)) }

// feedSeekDigest opens an unpaced feed at epoch start, seeks to target,
// and digests every frame released after the seek marker.
func feedSeekDigest(st store.Store, rank, width, start, target int) (string, error) {
	f, err := feed.Open(st, feed.Options{
		Rank:             rank,
		Rate:             feed.RateMax,
		Clock:            feed.NewVirtualClock(time.Unix(0, 0)),
		Paused:           true,
		StartEpoch:       start,
		DecodeWorkers:    width,
		SubscriberBuffer: 256,
	})
	if err != nil {
		return "", err
	}
	defer f.Close()
	sub, err := f.Subscribe()
	if err != nil {
		return "", err
	}
	if err := f.Seek(target); err != nil {
		return "", err
	}
	if err := f.Resume(); err != nil {
		return "", err
	}
	fh := newFrameHasher()
	sawSeek := false
	for {
		ev, ok := sub.Recv()
		if !ok {
			break
		}
		switch ev.Kind {
		case feed.KindSeek:
			if sawSeek {
				return "", fmt.Errorf("second seek marker at seq %d", ev.Seq)
			}
			if ev.Epoch != target {
				return "", fmt.Errorf("seek marker names epoch %d, want %d", ev.Epoch, target)
			}
			sawSeek = true
		case feed.KindFrame, feed.KindFlush:
			if !sawSeek {
				// The feed opens paused, so nothing may release before the
				// seek marker.
				return "", fmt.Errorf("frame released before the seek marker (seq %d)", ev.Seq)
			}
			fh.frame(ev.Frame.Kind, ev.Frame.Payload)
		case feed.KindEnd:
			if ev.Err != "" {
				return "", fmt.Errorf("feed ended with error: %s", ev.Err)
			}
		}
	}
	if !sawSeek {
		return "", fmt.Errorf("stream ended without a seek marker")
	}
	return fh.sum(), nil
}

// batchDigest digests the batch-decoded frame stream from an epoch
// boundary, decoded serially — the golden side of the identity.
func batchDigest(st store.Store, rank, epoch int) (string, error) {
	it, blob, err := store.SeekRankIter(st, rank, epoch, core.DecoderOptions{})
	if err != nil {
		return "", err
	}
	defer blob.Close()
	defer it.Close()
	fh := newFrameHasher()
	for {
		fr, err := it.Next()
		if err == io.EOF {
			return fh.sum(), nil
		}
		if err != nil {
			return "", err
		}
		fh.frame(fr.Kind, fr.Payload)
	}
}
