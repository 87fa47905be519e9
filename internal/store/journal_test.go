package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/workload"
)

// diskBackends names the on-disk backends the journal tests run over,
// each with a constructor for a run directory.
var diskBackends = []struct {
	name string
	open func(dir string) store.Store
}{
	{"dir", func(dir string) store.Store { return dirstore.New(dir) }},
	{"sharded", func(dir string) store.Store { return shardstore.New(dir) }},
}

// recordRanks records ranks ranks of a synthetic stream into st, each
// with a committed cut per epoch (plus the close's final cut), and leaves
// the run incomplete.
func recordRanks(t *testing.T, st store.Store, ranks, epochs int) {
	t.Helper()
	if err := st.Create(store.Manifest{Ranks: ranks, App: "journal"}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		w, err := st.CreateRank(r)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := core.NewEncoder(w, core.EncoderOptions{
			ChunkEvents: 16, SeekableCuts: st.Seekable(),
			OnFlushPoint: func(clock, events uint64, offset int64) error {
				return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		evs := workload.Stream(workload.StreamParams{Events: epochs * 40, Senders: 3, Disorder: 2, Seed: int64(r + 1)})
		var clock uint64
		for i, ev := range evs {
			if err := enc.Observe(1, ev); err != nil {
				t.Fatal(err)
			}
			clock = max(clock, ev.Clock)
			if (i+1)%40 == 0 {
				if err := enc.FlushAll(clock); err != nil {
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
	}
}

// pinnedRead opens rank through the store's pinning rules and returns the
// pinned blob size and the matched events it decodes; running out of
// bytes at the pin of an incomplete run is the end of the record.
func pinnedRead(t *testing.T, st store.Store, rank int) (size int64, events uint64) {
	t.Helper()
	r, err := st.OpenRank(rank)
	if err != nil {
		t.Fatal(err)
	}
	size = r.Size()
	r.Close() //cdc:allow(errsink) read-side close in a test; only the size was needed
	it, blob, err := store.OpenRankIter(st, rank, core.DecoderOptions{})
	if err != nil {
		if store.TolerableAtPin(err) {
			return size, 0
		}
		t.Fatal(err)
	}
	defer blob.Close() //cdc:allow(errsink) read-side close in a test; decode errors surface from Next
	defer it.Close()   //cdc:allow(errsink) read-side close in a test; decode errors surface from Next
	for err == nil {
		_, err = it.Next()
	}
	if err != io.EOF && !store.TolerableAtPin(err) {
		t.Fatalf("rank %d: pinned decode: %v", rank, err)
	}
	return size, it.Events()
}

// journals lists the index journals left in dir.
func journals(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestTornJournalPinsLongestIntactPrefix crashes one rank's index journal
// at every byte offset and flips one byte in each record: the run's
// committed index for that rank is exactly the longest intact prefix, a
// reader pins to that prefix's last offset, and the pinned read decodes
// exactly that cut's events. The other rank is never disturbed.
func TestTornJournalPinsLongestIntactPrefix(t *testing.T) {
	for _, b := range diskBackends {
		t.Run(b.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			st := b.open(dir)
			recordRanks(t, st, 2, 5)
			m, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			full, other := m.RankIndex(1), m.RankIndex(0)
			if len(full) < 4 {
				t.Fatalf("setup committed %d cuts on rank 1, want several", len(full))
			}
			path := store.JournalPath(dir, 1)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(orig) != len(full)*store.JournalRecordSize {
				t.Fatalf("journal holds %d bytes for %d cuts", len(orig), len(full))
			}
			check := func(what string, journal []byte, keep int) {
				t.Helper()
				if err := os.WriteFile(path, journal, 0o644); err != nil {
					t.Fatal(err)
				}
				m, err := st.Manifest()
				if err != nil {
					t.Fatal(err)
				}
				if got := m.RankIndex(1); len(got) != keep || (keep > 0 && !reflect.DeepEqual(got, full[:keep])) {
					t.Fatalf("%s: rank 1 index = %+v, want the first %d of %+v", what, got, keep, full)
				}
				if !reflect.DeepEqual(m.RankIndex(0), other) {
					t.Fatalf("%s: rank 0 index changed", what)
				}
				var want store.IndexEntry
				if keep > 0 {
					want = full[keep-1]
				}
				size, events := pinnedRead(t, st, 1)
				if size != want.Offset || events != want.Events {
					t.Fatalf("%s: pinned read of %d bytes decodes %d events, want %d bytes and %d events",
						what, size, events, want.Offset, want.Events)
				}
			}
			for off := 0; off <= len(orig); off++ {
				check(fmt.Sprintf("truncated at %d", off), orig[:off], off/store.JournalRecordSize)
			}
			for k := range full {
				torn := bytes.Clone(orig)
				torn[k*store.JournalRecordSize+(k*7)%store.JournalRecordSize] ^= 0x40
				check(fmt.Sprintf("record %d flipped", k), torn, k)
			}
		})
	}
}

// TestStaleJournalBesideCompleteManifest simulates a crash between
// Finalize's manifest publish and its journal removal: the leftover
// journal neither changes the complete run's index nor duplicates epochs
// once the run is reopened and appended to, and Create over such a
// directory leaves no journal behind.
func TestStaleJournalBesideCompleteManifest(t *testing.T) {
	for _, b := range diskBackends {
		t.Run(b.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			st := b.open(dir)
			recordRanks(t, st, 1, 3)
			stale, err := os.ReadFile(store.JournalPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Finalize(); err != nil {
				t.Fatal(err)
			}
			if left := journals(t, dir); len(left) != 0 {
				t.Fatalf("Finalize left journals %v", left)
			}
			m, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			n := len(m.RankIndex(0))
			if err := os.WriteFile(store.JournalPath(dir, 0), stale, 0o644); err != nil {
				t.Fatal(err)
			}
			if m2, err := st.Manifest(); err != nil || !reflect.DeepEqual(m2, m) {
				t.Fatalf("stale journal changed the complete manifest: %+v, %v", m2, err)
			}

			if _, err := st.Reopen(); err != nil {
				t.Fatal(err)
			}
			w, resume, err := st.AppendRank(0)
			if err != nil {
				t.Fatal(err)
			}
			if !resume {
				t.Fatal("AppendRank on a recorded rank must report resume")
			}
			last := m.LastCut(0)
			if err := w.Commit(store.Cut{Clock: last.Clock + 1}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for _, phase := range []string{"appended", "finalized"} {
				if phase == "finalized" {
					if err := st.Finalize(); err != nil {
						t.Fatal(err)
					}
				}
				m, err := st.Manifest()
				if err != nil {
					t.Fatal(err)
				}
				idx := m.RankIndex(0)
				if len(idx) != n+1 {
					t.Fatalf("%s: %d index entries, want %d", phase, len(idx), n+1)
				}
				for i, e := range idx {
					if e.Epoch != i+1 {
						t.Fatalf("%s: entry %d has epoch %d: %+v", phase, i, e.Epoch, idx)
					}
				}
				if got := idx[n]; got.Offset != last.Offset || got.Events != last.Events || got.Clock != last.Clock+1 {
					t.Fatalf("%s: appended cut %+v does not continue %+v", phase, got, last)
				}
			}

			if err := os.WriteFile(store.JournalPath(dir, 0), stale, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := st.Create(store.Manifest{Ranks: 1, App: "journal"}); err != nil {
				t.Fatal(err)
			}
			if left := journals(t, dir); len(left) != 0 {
				t.Fatalf("Create left journals %v", left)
			}
			if m, err := st.Manifest(); err != nil || len(m.Index) != 0 {
				t.Fatalf("re-created run has index %+v, %v", m.Index, err)
			}
		})
	}
}

// TestCommitIsConstantCost is the structural O(1) check on the commit
// path: over thousands of commits on one rank, manifest.json is never
// rewritten (same bytes, inode and modification time) and the rank's
// journal grows by exactly one fixed-size record per commit. The mean
// time per commit for the first and last thousand is logged, not
// asserted, since shared machines make timings noisy.
func TestCommitIsConstantCost(t *testing.T) {
	const window, total = 1000, 8000
	for _, b := range diskBackends {
		t.Run(b.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			st := b.open(dir)
			if err := st.Create(store.Manifest{Ranks: 1, App: "o1"}); err != nil {
				t.Fatal(err)
			}
			w, err := st.CreateRank(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close() //cdc:allow(errsink) test cleanup after a failed check
			manifestPath := filepath.Join(dir, store.ManifestName)
			wantBytes, err := os.ReadFile(manifestPath)
			if err != nil {
				t.Fatal(err)
			}
			wantInfo, err := os.Stat(manifestPath)
			if err != nil {
				t.Fatal(err)
			}
			var first, last time.Duration
			payload := []byte("12345678")
			for i := 1; i <= total; i++ {
				if _, err := w.Write(payload); err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				err := w.Commit(store.Cut{Clock: uint64(i), Events: uint64(i), Offset: int64(i * len(payload))})
				took := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if i <= window {
					first += took
				} else if i > total-window {
					last += took
				}
				if i != window && i != total {
					continue
				}
				gotBytes, err := os.ReadFile(manifestPath)
				if err != nil {
					t.Fatal(err)
				}
				gotInfo, err := os.Stat(manifestPath)
				if err != nil {
					t.Fatal(err)
				}
				// A rewrite can land on a recycled inode number, so the
				// modification time is compared too.
				if !bytes.Equal(gotBytes, wantBytes) || !os.SameFile(gotInfo, wantInfo) || !gotInfo.ModTime().Equal(wantInfo.ModTime()) {
					t.Fatalf("after %d commits manifest.json was rewritten", i)
				}
				ji, err := os.Stat(store.JournalPath(dir, 0))
				if err != nil {
					t.Fatal(err)
				}
				if ji.Size() != int64(i*store.JournalRecordSize) {
					t.Fatalf("after %d commits the journal holds %d bytes, want %d", i, ji.Size(), i*store.JournalRecordSize)
				}
			}
			m, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if got := m.LastCut(0); got.Epoch != total || got.Offset != int64(total*len(payload)) {
				t.Fatalf("folded last cut %+v, want epoch %d", got, total)
			}
			t.Logf("mean commit: first %d %v, last %d %v (ratio %.2f)",
				window, first/window, window, last/window, float64(last)/float64(first))
		})
	}
}

// FuzzIndexJournal feeds arbitrary bytes to the journal codec. Decoding
// must never panic and must stop exactly at the first short or CRC-bad
// record, and folding the entries into a manifest must be idempotent and
// number the index 1..n.
func FuzzIndexJournal(f *testing.F) {
	var good []byte
	for i := 1; i <= 3; i++ {
		good = appendRecord(good, uint64(i), uint64(10*i), uint64(4*i), uint64(100*i))
	}
	f.Add(good)
	f.Add(good[:2*store.JournalRecordSize+5])
	flipped := bytes.Clone(good)
	flipped[store.JournalRecordSize+3] ^= 1
	f.Add(flipped)
	f.Add(appendRecord(appendRecord(nil, 2, 1, 1, 1), 1, 1, 1, 1)) // a gap, then epoch 1
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		entries := store.DecodeJournal(buf)
		intact := 0
		for ; (intact+1)*store.JournalRecordSize <= len(buf); intact++ {
			rec := buf[intact*store.JournalRecordSize : (intact+1)*store.JournalRecordSize]
			if crc32.Checksum(rec[:32], crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(rec[32:]) {
				break
			}
		}
		if len(entries) != intact {
			t.Fatalf("decoded %d entries, intact prefix is %d records", len(entries), intact)
		}
		for i, e := range entries {
			rec := buf[i*store.JournalRecordSize:]
			if uint64(e.Epoch) != binary.LittleEndian.Uint64(rec) || e.Clock != binary.LittleEndian.Uint64(rec[8:]) ||
				e.Events != binary.LittleEndian.Uint64(rec[16:]) || uint64(e.Offset) != binary.LittleEndian.Uint64(rec[24:]) {
				t.Fatalf("entry %d = %+v does not match its record", i, e)
			}
		}
		m := store.Manifest{Ranks: 1}
		store.FoldJournal(&m, 0, entries)
		once := m.Clone()
		store.FoldJournal(&m, 0, entries)
		if !reflect.DeepEqual(m, once) {
			t.Fatalf("second fold changed the index: %+v after %+v", m.Index, once.Index)
		}
		for i, e := range m.RankIndex(0) {
			if e.Epoch != i+1 {
				t.Fatalf("folded entry %d has epoch %d", i, e.Epoch)
			}
		}
	})
}

// appendRecord appends one journal record built independently of the
// codec under test.
func appendRecord(dst []byte, epoch, clock, events, offset uint64) []byte {
	var rec []byte
	for _, v := range []uint64{epoch, clock, events, offset} {
		rec = binary.LittleEndian.AppendUint64(rec, v)
	}
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
	return append(dst, rec...)
}
