package recorddir

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/tables"
)

func writeRank(t *testing.T, dir string, rank int, events int) {
	t.Helper()
	f, err := CreateRankFile(dir, rank)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(f, core.EncoderOptions{})
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
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Ranks: 3, App: "mcb", Params: map[string]string{"particles": "100"}}
	if err := Create(dir, m); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		writeRank(t, dir, r, 5)
	}
	if err := Finalize(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, "mcb", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != 3 || got.App != "mcb" || got.Params["particles"] != "100" {
		t.Fatalf("manifest = %+v", got)
	}
	it, f, err := rankSource(dir, 1)()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
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

// rankSource opens one rank file of a run directory as a streaming record,
// in the shape replay.Open takes.
func rankSource(dir string, rank int) func() (*core.RecordIter, io.Closer, error) {
	return func() (*core.RecordIter, io.Closer, error) {
		f, err := os.Open(RankPath(dir, rank))
		if err != nil {
			return nil, nil, err
		}
		it, err := core.OpenRecord(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return it, f, nil
	}
}

func TestOpenRejectsMismatches(t *testing.T) {
	dir := t.TempDir()
	if err := Create(dir, Manifest{Ranks: 2, App: "mcb"}); err != nil {
		t.Fatal(err)
	}
	writeRank(t, dir, 0, 1)
	writeRank(t, dir, 1, 1)
	if err := Finalize(dir); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, "jacobi", 2); err == nil || !strings.Contains(err.Error(), "app") {
		t.Fatalf("wrong-app err = %v", err)
	}
	if _, err := Open(dir, "mcb", 4); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("wrong-rank err = %v", err)
	}
	if _, err := Open(t.TempDir(), "", 0); err == nil {
		t.Fatal("opened a non-record directory")
	}
}

func TestOpenDetectsMissingRankFile(t *testing.T) {
	dir := t.TempDir()
	if err := Create(dir, Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	writeRank(t, dir, 0, 1) // rank 1 missing
	if err := Finalize(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "", 0); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v", err)
	}
}

// TestOpenRefusesIncompleteRecord covers the crash window between Create
// and Finalize: however far the record run got — manifest only, or all rank
// files written but not finalized — Open must refuse the directory.
func TestOpenRefusesIncompleteRecord(t *testing.T) {
	dir := t.TempDir()
	if err := Create(dir, Manifest{Ranks: 1, App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "", 0); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("fresh directory: err = %v, want ErrIncomplete", err)
	}
	writeRank(t, dir, 0, 3)
	if _, err := Open(dir, "", 0); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("all ranks written, not finalized: err = %v, want ErrIncomplete", err)
	}
	if err := Finalize(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "", 0); err != nil {
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
	if err := Create(dir, Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	// Crash point: rank files created but never written or closed.
	f, err := CreateRankFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A torn manifest temp file from an interrupted writeManifest.
	if err := os.WriteFile(dir+"/"+ManifestName+".tmp123", []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "", 0); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("crashed record opened as complete: err = %v", err)
	}
}

func TestCreateRemovesStaleRankFiles(t *testing.T) {
	dir := t.TempDir()
	if err := Create(dir, Manifest{Ranks: 3, App: "x"}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		writeRank(t, dir, r, 1)
	}
	// Re-record with fewer ranks: the old rank0002 file must vanish.
	if err := Create(dir, Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(RankPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("stale rank file survived: %v", err)
	}
}

func TestCreateRejectsBadManifest(t *testing.T) {
	if err := Create(t.TempDir(), Manifest{Ranks: 0}); err == nil {
		t.Fatal("accepted zero ranks")
	}
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/"+ManifestName, []byte(`{"version":99,"ranks":1,"app":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "", 0); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}
