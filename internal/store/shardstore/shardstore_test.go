package shardstore_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/store/storetest"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

func TestShardstoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store {
		return shardstore.New(filepath.Join(t.TempDir(), "run"))
	})
}

// appendBurst opens rank 0 for appending (creating it on the first call),
// streams events through an encoder, commits one cut, and seals the
// fragment — one tail fragment per call.
func appendBurst(t *testing.T, st store.Store, events []tables.Event, clockBase uint64) uint64 {
	t.Helper()
	w, resume, err := st.AppendRank(0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents: 64, SeekableCuts: st.Seekable(),
		Resume: resume, ResumeClock: clockBase,
		OnFlushPoint: func(c, ev uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: c, Events: ev, Offset: offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := clockBase
	for _, ev := range events {
		ev.Clock += clockBase
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		if ev.Clock > clock {
			clock = ev.Clock
		}
	}
	if err := enc.FlushAll(clock); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return clock
}

// fragments returns rank 0's current fragment list.
func fragments(t *testing.T, st store.Store) []store.Fragment {
	t.Helper()
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards == nil || len(m.Shards.Ranks) == 0 {
		t.Fatal("manifest has no shard map")
	}
	return m.Shards.Ranks[0]
}

// TestCompactionFixedPoint accumulates sealed fragments below the
// automatic trigger (DefaultCompactAt), compacts explicitly, and checks the merge
// reaches a fixed point without changing a single blob byte: same bytes,
// same committed offsets, fewer files, and a second Compact is a no-op.
func TestCompactionFixedPoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	st := shardstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: 1, App: "compact"}); err != nil {
		t.Fatal(err)
	}
	var clock uint64
	for i := 0; i < shardstore.DefaultCompactAt-1; i++ {
		events := workload.Stream(workload.StreamParams{Events: 80, Senders: 1, Disorder: 2, Seed: int64(i + 1)})
		clock = appendBurst(t, st, events, clock)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	before := fragments(t, st)
	if len(before) < 4 || len(before) >= shardstore.DefaultCompactAt {
		t.Fatalf("setup grew %d fragments, want enough to merge and fewer than the auto trigger", len(before))
	}
	raw, err := st.RawRank(0)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make([]byte, raw.Size())
	if _, err := raw.ReadAt(wantBytes, 0); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	m, _ := st.Manifest()
	wantIndex := append([]store.IndexEntry(nil), m.RankIndex(0)...)

	merges, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merges == 0 {
		t.Fatal("compaction of same-tier fragments performed no merges")
	}
	after := fragments(t, st)
	if len(after) >= len(before) {
		t.Fatalf("compaction left %d fragments, started with %d", len(after), len(before))
	}
	raw, err = st.RawRank(0)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes := make([]byte, raw.Size())
	if _, err := raw.ReadAt(gotBytes, 0); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("compaction changed blob bytes")
	}
	m, _ = st.Manifest()
	gotIndex := m.RankIndex(0)
	if len(gotIndex) != len(wantIndex) {
		t.Fatalf("compaction changed index length: %d -> %d", len(wantIndex), len(gotIndex))
	}
	for i := range wantIndex {
		if gotIndex[i] != wantIndex[i] {
			t.Fatalf("index entry %d changed: %+v -> %+v", i, wantIndex[i], gotIndex[i])
		}
	}
	if n, err := rank0Events(st); err != nil || n == 0 {
		t.Fatalf("compacted blob does not decode: %v", err)
	}
	// Old fragment files must be gone; a second pass finds nothing to do.
	for _, fr := range before {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(fr.Path))); !errors.Is(err, os.ErrNotExist) {
			found := false
			for _, g := range after {
				if g.Path == fr.Path {
					found = true
				}
			}
			if !found {
				t.Errorf("merged-away fragment %s still on disk", fr.Path)
			}
		}
	}
	if merges, err := st.Compact(); err != nil || merges != 0 {
		t.Fatalf("second Compact: %d merges, %v; want a fixed point", merges, err)
	}
}

// TestAutoCompactionBoundsFragments checks AppendRank's trigger: fragment
// counts stay bounded near DefaultCompactAt no matter how many times a
// rank is resumed.
func TestAutoCompactionBoundsFragments(t *testing.T) {
	st := shardstore.New(filepath.Join(t.TempDir(), "run"))
	if err := st.Create(store.Manifest{Ranks: 1, App: "auto"}); err != nil {
		t.Fatal(err)
	}
	var clock uint64
	for i := 0; i < 16; i++ {
		events := workload.Stream(workload.StreamParams{Events: 60, Senders: 1, Disorder: 2, Seed: int64(i + 1)})
		clock = appendBurst(t, st, events, clock)
	}
	if got := len(fragments(t, st)); got > shardstore.DefaultCompactAt+1 {
		t.Fatalf("16 resumes grew %d fragments; the DefaultCompactAt=%d trigger never fired", got, shardstore.DefaultCompactAt)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n, err := rank0Events(st); err != nil || n == 0 {
		t.Fatalf("auto-compacted blob does not decode: %v", err)
	}
}

// TestRecordedFanoutKept checks that a run recorded with another fanout
// keeps placing its fragments by its manifest's fanout, not DefaultFanout.
func TestRecordedFanoutKept(t *testing.T) {
	st := shardstore.New(filepath.Join(t.TempDir(), "run"))
	if err := st.Create(store.Manifest{Ranks: 6, App: "fanout"}); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	m.Shards.Fanout = 4
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	w, _, err := st.AppendRank(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err = st.Manifest(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Shards.Ranks[5][0].Path, "shards/s01/r0005.f0001.cdc"; got != want {
		t.Fatalf("rank 5 fragment at %s, want %s (fanout 4 from the manifest)", got, want)
	}
}

// TestRootSalvageAllSkipsForeign checks the sweep's isolation rules: a
// garbage manifest and a dir-layout run under the same root are skipped
// with findings while the incomplete sharded run is salvaged.
func TestRootSalvageAllSkipsForeign(t *testing.T) {
	root := t.TempDir()

	// An incomplete sharded run with real committed data.
	shardRun := shardstore.New(filepath.Join(root, "tenant", "crashed"))
	if err := shardRun.Create(store.Manifest{Ranks: 1, App: "sweep"}); err != nil {
		t.Fatal(err)
	}
	appendBurst(t, shardRun, workload.Stream(workload.StreamParams{Events: 100, Senders: 1, Disorder: 2, Seed: 9}), 0)

	// A dir-layout run: not ours, must be left for its own backend.
	dirRun := dirstore.New(filepath.Join(root, "tenant", "dirlayout"))
	if err := dirRun.Create(store.Manifest{Ranks: 1, App: "other"}); err != nil {
		t.Fatal(err)
	}

	// Unreadable garbage where a manifest should be.
	garbage := filepath.Join(root, "tenant", "garbage")
	if err := os.MkdirAll(garbage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(garbage, store.ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	runs, err := shardstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatalf("one foreign run aborted the whole sweep: %v", err)
	}
	got := map[string]store.RunSalvage{}
	for _, rs := range runs {
		got[rs.Dir] = rs
	}
	if rs := got["tenant/crashed"]; !rs.Salvaged || rs.Err != nil {
		t.Errorf("sharded run not salvaged: %+v", rs)
	}
	if rs := got["tenant/dirlayout"]; !rs.Skipped || rs.Finding == "" {
		t.Errorf("dir-layout run not skipped with a finding: %+v", rs)
	}
	if rs := got["tenant/garbage"]; !rs.Skipped || rs.Finding == "" {
		t.Errorf("garbage manifest not skipped with a finding: %+v", rs)
	}

	// The salvaged run is now complete and decodes.
	if _, err := store.Open(shardRun, "sweep", 1); err != nil {
		t.Fatal(err)
	}
	if n, err := rank0Events(shardRun); err != nil || n == 0 {
		t.Fatalf("salvaged run does not decode: %v", err)
	}
}

// rank0Events fully decodes rank 0's record and returns its matched events.
func rank0Events(st store.Store) (uint64, error) {
	it, blob, err := store.OpenRankIter(st, 0, core.DecoderOptions{})
	if err != nil {
		return 0, err
	}
	defer blob.Close()
	defer it.Close()
	for err == nil {
		_, err = it.Next()
	}
	if err != io.EOF {
		return 0, err
	}
	return it.Events(), nil
}
