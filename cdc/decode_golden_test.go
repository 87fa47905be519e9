package cdc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"cdcreplay/internal/simmpi"
)

// releaseDigest folds per-rank release sequences into one order-sensitive
// hash: each rank's releases are hashed in their own delivery order, then
// the rank digests combine by rank index (cross-rank interleaving is
// scheduler noise, in-rank order is the replay contract).
type releaseDigest struct {
	mu    sync.Mutex
	ranks map[int]*[]byte
}

func newReleaseDigest() *releaseDigest {
	return &releaseDigest{ranks: map[int]*[]byte{}}
}

func (rd *releaseDigest) observe(rank int, st simmpi.Status) {
	var rec [28]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(rank))
	binary.LittleEndian.PutUint64(rec[8:], uint64(st.Source))
	binary.LittleEndian.PutUint64(rec[16:], uint64(st.Tag))
	// Clock fits the final 4 bytes' worth of entropy poorly; hash it whole.
	binary.LittleEndian.PutUint32(rec[24:], uint32(st.Clock))
	rd.mu.Lock()
	buf, ok := rd.ranks[rank]
	if !ok {
		buf = &[]byte{}
		rd.ranks[rank] = buf
	}
	*buf = append(*buf, rec[:]...)
	rd.mu.Unlock()
}

func (rd *releaseDigest) sum(ranks int) string {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	h := sha256.New()
	for rank := 0; rank < ranks; rank++ {
		if buf, ok := rd.ranks[rank]; ok {
			h.Write(*buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayDecodeWorkersGolden is the end-to-end identity pin for the
// parallel decode pipeline: one recording per storage backend, replayed at
// every pool width, must release the exact same per-rank event sequence and
// reproduce the recorded tally bit for bit.
func TestReplayDecodeWorkersGolden(t *testing.T) {
	type backend struct {
		name string
		// opts returns record-side options and the (possibly shorter)
		// replay-side options: the sharded layout marker is record-only,
		// replay sniffs it from the manifest.
		opts func(t *testing.T) (rec, rep []Option)
	}
	backends := []backend{
		{"dir", func(t *testing.T) ([]Option, []Option) {
			o := []Option{WithDir(filepath.Join(t.TempDir(), "rec"))}
			return o, o
		}},
		{"sharded", func(t *testing.T) ([]Option, []Option) {
			o := []Option{WithDir(filepath.Join(t.TempDir(), "rec"))}
			return append(o[:1:1], WithStoreLayout(LayoutSharded)), o
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			recOpts, storeOpts := b.opts(t)
			var mu sync.Mutex
			var recorded float64
			w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 31, MaxJitter: 8})
			if _, err := Record(w, mcbApp(&recorded, &mu), append([]Option{WithApp("mcb")}, recOpts...)...); err != nil {
				t.Fatal(err)
			}

			var goldenDigest, goldenTally = "", 0.0
			for _, workers := range []int{0, 1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					rd := newReleaseDigest()
					var replayed float64
					opts := append([]Option{WithApp("mcb"), WithOnRelease(rd.observe)}, storeOpts...)
					if workers > 0 {
						opts = append(opts, WithDecodeWorkers(workers))
					}
					w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: int64(91 + workers), MaxJitter: 8})
					rep, err := Replay(w2, mcbApp(&replayed, &mu), opts...)
					if err != nil {
						t.Fatal(err)
					}
					if replayed != recorded {
						t.Fatalf("tally diverged: recorded %.17g, replayed %.17g", recorded, replayed)
					}
					if rep.Released() == 0 {
						t.Fatal("replay released no events")
					}
					digest := rd.sum(testRanks)
					if goldenDigest == "" {
						goldenDigest, goldenTally = digest, replayed
					} else if digest != goldenDigest || replayed != goldenTally {
						t.Fatalf("release order diverged from serial replay: digest %s vs %s", digest, goldenDigest)
					}
				})
			}
		})
	}
}

// TestDecodeOptionValidation pins the decode-side option contract: bounds
// and mode scoping.
func TestDecodeOptionValidation(t *testing.T) {
	expectOptionError(t, modeReplay, "WithDecodeWorkers", WithDecodeWorkers(-1))
	expectOptionError(t, modeReplay, "WithDecodeWorkers", WithDecodeWorkers(257))
	// Decode options are read-side: record mode rejects them.
	expectOptionError(t, modeRecord, "WithDecodeWorkers", WithDecodeWorkers(4))

	if _, err := newConfig(modeReplay, []Option{WithDir("rec"), WithDecodeWorkers(4)}); err != nil {
		t.Errorf("valid decode options rejected: %v", err)
	}
	if _, err := readerConfig([]Option{WithDecodeWorkers(8)}); err != nil {
		t.Errorf("reader mode rejected decode options: %v", err)
	}
	if o, err := readerConfig([]Option{WithDecodeWorkers(3)}); err != nil || o.DecodeWorkers != 3 {
		t.Errorf("readerConfig = %+v, %v", o, err)
	}
}
