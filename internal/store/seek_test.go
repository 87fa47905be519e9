package store_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/workload"
)

// recordEpochs streams a synthetic workload into st as one rank with an
// index commit per epoch, mirroring what the cdc pipeline does.
func recordEpochs(t *testing.T, st store.Store, events, epochs int) {
	t.Helper()
	if err := st.Create(store.Manifest{Ranks: 1, App: "seek-test"}); err != nil {
		t.Fatal(err)
	}
	w, err := st.CreateRank(0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents:  64,
		SeekableCuts: st.Seekable(),
		OnFlushPoint: func(clock, events uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := workload.Stream(workload.StreamParams{Events: events, Senders: 4, Disorder: 3, Seed: 7})
	per := (len(evs) + epochs - 1) / epochs
	var maxClock uint64
	for i, ev := range evs {
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		if ev.Clock > maxClock {
			maxClock = ev.Clock
		}
		if (i+1)%per == 0 && i+1 < len(evs) {
			if err := enc.FlushAll(maxClock); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// drainKinds consumes an iterator to EOF, returning (kind, payload) pairs.
func drainKinds(t *testing.T, it *core.RecordIter) []string {
	t.Helper()
	var out []string
	for {
		f, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, fmt.Sprintf("%d:%s", f.Kind, f.Payload))
	}
}

// countingStore hands out rank readers that count how many bytes are read
// below floor, through ReadAt and through Read alike: a seek to an epoch on
// a seekable backend must start decoding at the epoch's index offset, not
// at byte 0. It also counts manifest reads.
type countingStore struct {
	store.Store
	mu        sync.Mutex // parallel decode reads segments concurrently
	floor     int64
	below     int64
	manifests int
}

func (s *countingStore) Manifest() (store.Manifest, error) {
	s.mu.Lock()
	s.manifests++
	s.mu.Unlock()
	return s.Store.Manifest()
}

func (s *countingStore) reset(floor int64) {
	s.mu.Lock()
	s.floor, s.below = floor, 0
	s.mu.Unlock()
}

func (s *countingStore) bytesBelowFloor() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.below
}

func (s *countingStore) note(off int64, n int) {
	s.mu.Lock()
	if off < s.floor && n > 0 {
		s.below += min(int64(n), s.floor-off)
	}
	s.mu.Unlock()
}

func (s *countingStore) OpenRank(rank int) (store.BlobReader, error) {
	r, err := s.Store.OpenRank(rank)
	if err != nil {
		return nil, err
	}
	return &countingBlob{BlobReader: r, s: s}, nil
}

type countingBlob struct {
	store.BlobReader
	s   *countingStore
	pos int64 // Read position, kept in step with Seek
}

func (b *countingBlob) ReadAt(p []byte, off int64) (int, error) {
	n, err := b.BlobReader.ReadAt(p, off)
	b.s.note(off, n)
	return n, err
}

func (b *countingBlob) Read(p []byte) (int, error) {
	n, err := b.BlobReader.Read(p)
	b.s.note(b.pos, n)
	b.pos += int64(n)
	return n, err
}

func (b *countingBlob) Seek(off int64, whence int) (int64, error) {
	pos, err := b.BlobReader.Seek(off, whence)
	if err == nil {
		b.pos = pos
	}
	return pos, err
}

// TestSeekRankIterEpochBoundaries pins the seek contract across backends:
// SeekRankIter(epoch) must deliver exactly the frames a full decode yields
// past epoch flush marks, on the seekable jump path and the skip path
// alike, at serial and pooled widths. On seekable backends it also checks
// the seek jumps: no byte before the epoch's index offset is read.
func TestSeekRankIterEpochBoundaries(t *testing.T) {
	backends := []struct {
		name string
		mk   func(t *testing.T) store.Store
	}{
		{"dir", func(t *testing.T) store.Store { return dirstore.New(t.TempDir()) }},
		{"sharded", func(t *testing.T) store.Store { return shardstore.New(t.TempDir()) }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			st := &countingStore{Store: b.mk(t)}
			recordEpochs(t, st, 900, 5)
			m, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			idx := m.RankIndex(0)
			if len(idx) == 0 {
				t.Fatal("no committed epochs")
			}

			it, blob, err := store.OpenRankIter(st, 0, core.DecoderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			all := drainKinds(t, it)
			it.Close()
			blob.Close()

			// tail returns the frames past k flush marks of the full stream.
			tail := func(k int) []string {
				seen := 0
				for i, f := range all {
					if f[0] == '3' { // frameFlush kind
						seen++
						if seen == k {
							return all[i+1:]
						}
					}
				}
				t.Fatalf("fewer than %d flush marks", k)
				return nil
			}

			for epoch := 0; epoch <= len(idx); epoch++ {
				want := all
				if epoch > 0 {
					want = tail(epoch)
				}
				var floor int64
				if epoch > 0 && st.Seekable() {
					floor = idx[epoch-1].Offset
				}
				for _, workers := range []int{0, 2} {
					st.reset(floor)
					it, blob, err := store.SeekRankIter(st, 0, epoch, core.DecoderOptions{DecodeWorkers: workers})
					if err != nil {
						t.Fatalf("epoch %d workers=%d: %v", epoch, workers, err)
					}
					got := drainKinds(t, it)
					it.Close()
					blob.Close()
					if n := st.bytesBelowFloor(); n > 0 {
						t.Fatalf("epoch %d workers=%d: read %d bytes before the epoch's index offset %d; the seek decoded from the start instead of jumping", epoch, workers, n, floor)
					}
					if len(got) != len(want) {
						t.Fatalf("epoch %d workers=%d: got %d frames, want %d", epoch, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("epoch %d workers=%d: frame %d differs", epoch, workers, i)
						}
					}
				}
			}

			// Out-of-range epochs fail cleanly.
			if _, _, err := store.SeekRankIter(st, 0, len(idx)+1, core.DecoderOptions{}); err == nil {
				t.Fatal("seek past last committed epoch: want error")
			}
			if _, _, err := store.SeekRankIter(st, 0, -1, core.DecoderOptions{}); err == nil {
				t.Fatal("negative epoch: want error")
			}
		})
	}
}

// TestOpenRankIterManifestReads pins which opens pay for a manifest read:
// only a pooled open of a seekable store needs the chunk index, so a
// serial open, or any open of a non-seekable store (the dir layout every
// mcb replay reads), opens the blob alone.
func TestOpenRankIterManifestReads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mk      func(dir string) store.Store
		workers int
		want    int
	}{
		{"dir/workers=0", func(d string) store.Store { return dirstore.New(d) }, 0, 0},
		{"dir/workers=4", func(d string) store.Store { return dirstore.New(d) }, 4, 0},
		{"sharded/workers=0", func(d string) store.Store { return shardstore.New(d) }, 0, 0},
		{"sharded/workers=2", func(d string) store.Store { return shardstore.New(d) }, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &countingStore{Store: tc.mk(t.TempDir())}
			recordEpochs(t, st, 300, 3)
			st.manifests = 0
			it, blob, err := store.OpenRankIter(st, 0, core.DecoderOptions{DecodeWorkers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			drainKinds(t, it)
			it.Close()
			blob.Close()
			if st.manifests != tc.want {
				t.Fatalf("OpenRankIter read the manifest %d time(s), want %d", st.manifests, tc.want)
			}
		})
	}
}
