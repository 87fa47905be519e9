package dirstore_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
)

// writeRank records events matched receives into rank's file, closing the
// encoder cleanly but committing no cut.
func writeRank(t *testing.T, st *dirstore.DirStore, rank int, events int) {
	t.Helper()
	w, err := st.CreateRank(rank)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		if err := enc.Observe(0, tables.Matched(0, uint64(i+1), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	st := dirstore.New(t.TempDir())
	m := store.Manifest{Ranks: 3, App: "mcb", Params: map[string]string{"particles": "100"}}
	if err := st.Create(m); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		writeRank(t, st, r, 5)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := store.Open(st, "mcb", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != 3 || got.App != "mcb" || got.Params["particles"] != "100" {
		t.Fatalf("manifest = %+v", got)
	}
	it, blob, err := store.OpenRankIter(st, 1, core.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blob.Close()
	defer it.Close()
	for err == nil {
		_, err = it.Next()
	}
	if err != io.EOF {
		t.Fatal(err)
	}
	if it.Events() == 0 {
		t.Fatal("rank record empty")
	}
}

func TestOpenRejectsMismatches(t *testing.T) {
	st := dirstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 2, App: "mcb"}); err != nil {
		t.Fatal(err)
	}
	writeRank(t, st, 0, 1)
	writeRank(t, st, 1, 1)
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}

	if _, err := store.Open(st, "jacobi", 2); err == nil || !strings.Contains(err.Error(), "app") {
		t.Fatalf("wrong-app err = %v", err)
	}
	if _, err := store.Open(st, "mcb", 4); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("wrong-rank err = %v", err)
	}
	if _, err := store.Open(dirstore.New(t.TempDir()), "", 0); err == nil {
		t.Fatal("opened a non-record directory")
	}
}

func TestOpenDetectsMissingRankFile(t *testing.T) {
	st := dirstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	writeRank(t, st, 0, 1) // rank 1 missing
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v", err)
	}
}

// TestOpenRefusesIncompleteRecord covers the crash window between Create
// and Finalize: however far the record run got — manifest only, or all rank
// files written but not finalized — Open must refuse the directory.
func TestOpenRefusesIncompleteRecord(t *testing.T) {
	st := dirstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 1, App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("fresh directory: err = %v, want ErrIncomplete", err)
	}
	writeRank(t, st, 0, 3)
	if _, err := store.Open(st, "", 0); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("all ranks written, not finalized: err = %v, want ErrIncomplete", err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); err != nil {
		t.Fatalf("finalized directory refused: %v", err)
	}
}

// TestCrashDuringCreateNeverYieldsCompleteManifest simulates the
// fault-injected crash the manifest protocol must survive: a record run
// that dies before its first flush. Whatever partial state exists on disk —
// including a torn temp manifest left beside the real one — Open must not
// accept the directory as a complete record.
func TestCrashDuringCreateNeverYieldsCompleteManifest(t *testing.T) {
	dir := t.TempDir()
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	// Crash point: rank files created but never written or closed.
	w, err := st.CreateRank(0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	// A torn manifest temp file from an interrupted manifest write.
	if err := os.WriteFile(filepath.Join(dir, store.ManifestName+".tmp123"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("crashed record opened as complete: err = %v", err)
	}
}

func TestCreateRemovesStaleRankFiles(t *testing.T) {
	dir := t.TempDir()
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: 3, App: "x"}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		writeRank(t, st, r, 1)
	}
	// Re-record with fewer ranks: the old rank0002 file must vanish.
	if err := st.Create(store.Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dirstore.RankPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("stale rank file survived: %v", err)
	}
}

func TestCreateRejectsBadManifest(t *testing.T) {
	if err := dirstore.New(t.TempDir()).Create(store.Manifest{Ranks: 0}); err == nil {
		t.Fatal("accepted zero ranks")
	}
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte(`{"version":99,"ranks":1,"app":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dirstore.New(dir), "", 0); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}

// TestOpenRankDecodesCompleteManifestOnce: OpenRank on a complete run
// decodes manifest.json once. Garbling the file in place, keeping its
// inode, size and mtime, goes unnoticed by later calls, which a re-decode
// would fail on; a Reopen through a second handle is seen by the first.
func TestOpenRankDecodesCompleteManifestOnce(t *testing.T) {
	dir := t.TempDir()
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: 2, App: "mcb"}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		writeRank(t, st, r, 5)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	r, err := st.OpenRank(0)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	path := filepath.Join(dir, store.ManifestName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Repeat([]byte{'x'}, len(orig)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		r, err := st.OpenRank(i % 2)
		if err != nil {
			t.Fatalf("OpenRank call %d decoded the manifest again: %v", i+2, err)
		}
		r.Close()
	}
	if _, err := dirstore.New(dir).OpenRank(0); !errors.Is(err, store.ErrBadManifest) {
		t.Fatalf("fresh handle on the garbled manifest: err = %v, want ErrBadManifest", err)
	}

	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dirstore.New(dir).Reopen(); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete {
		t.Fatal("Reopen through a second handle not seen: manifest still Complete")
	}
	// An incomplete run reads a rank whose blob is gone as empty, where a
	// complete one would fail.
	if err := os.Remove(dirstore.RankPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	r, err = st.OpenRank(1)
	if err != nil {
		t.Fatalf("OpenRank after Reopen still treats the run as complete: %v", err)
	}
	defer r.Close()
	if r.Size() != 0 {
		t.Fatalf("missing blob of an incomplete run has size %d, want 0", r.Size())
	}
}
