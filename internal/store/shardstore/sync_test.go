package shardstore

import (
	"path/filepath"
	"slices"
	"testing"

	"cdcreplay/internal/store"
)

// TestFirstCommitSyncsFragmentDirs: a new fragment's directory entry, and
// the entries of shards/sNN and shards/ above it, must be durable before
// the first cut into that fragment is committed. Each fragment a writer
// opens, created or appended, syncs its chain once, innermost first;
// compaction syncs the merged fragment's chain before it publishes.
func TestFirstCommitSyncsFragmentDirs(t *testing.T) {
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return store.SyncDir(dir)
	}
	defer func() { syncDir = store.SyncDir }()

	run := filepath.Join(t.TempDir(), "run")
	s := New(run)
	if err := s.Create(store.Manifest{Ranks: 6}); err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(run, "shards", "s05"), filepath.Join(run, "shards"), run}
	commits := func(w store.BlobWriter, n int) {
		t.Helper()
		for i := 1; i <= n; i++ {
			if _, err := w.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(store.Cut{Clock: uint64(i), Events: uint64(i), Offset: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	w, err := s.CreateRank(5)
	if err != nil {
		t.Fatal(err)
	}
	synced = nil
	commits(w, 3)
	if !slices.Equal(synced, want) {
		t.Fatalf("CreateRank fragment: commits synced %v, want %v", synced, want)
	}

	w, _, err = s.AppendRank(5)
	if err != nil {
		t.Fatal(err)
	}
	synced = nil
	commits(w, 2)
	if !slices.Equal(synced, want) {
		t.Fatalf("AppendRank fragment: commits synced %v, want %v", synced, want)
	}

	synced = nil
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(synced, want) {
		t.Fatalf("compaction synced %v before publishing, want %v", synced, want)
	}
}
