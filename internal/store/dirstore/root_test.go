package dirstore_test

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// makeRun writes a single-rank run under root at tenant/run with events
// matched events, optionally leaving the manifest incomplete and the rank
// file torn (crash simulation by truncation past the last flush mark).
func makeRun(t *testing.T, root, tenant, run string, events int, complete, torn bool) string {
	t.Helper()
	dir := filepath.Join(root, tenant, run)
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: 1, App: "ingest"}); err != nil {
		t.Fatal(err)
	}
	w, err := st.CreateRank(0)
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
		if (i+1)%4 == 0 {
			if err := enc.FlushAll(uint64(i + 1)); err != nil {
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
	if torn {
		// Chop the tail so the final frames are damaged, as a crash
		// mid-write would leave them.
		path := dirstore.RankPath(dir, 0)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf[:len(buf)-7], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if complete {
		if err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestSalvageAllRecoversIncompleteRuns(t *testing.T) {
	root := t.TempDir()
	makeRun(t, root, "acme", "run1", 16, true, false)  // complete: untouched
	makeRun(t, root, "acme", "run2", 16, false, true)  // crashed: salvage
	makeRun(t, root, "globex", "run1", 8, false, true) // crashed: salvage

	results, err := dirstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("SalvageAll returned %d results, want 2 (complete run untouched): %+v", len(results), results)
	}
	for _, rs := range results {
		if rs.Err != nil {
			t.Fatalf("run %s: %v", rs.Dir, rs.Err)
		}
		if !rs.Salvaged || rs.Report == nil {
			t.Fatalf("run %s not salvaged: %+v", rs.Dir, rs)
		}
		kept, _ := rs.Report.Events()
		if kept == 0 {
			t.Fatalf("run %s salvaged zero events", rs.Dir)
		}
	}
	if results[0].Dir != filepath.Join("acme", "run2") || results[1].Dir != filepath.Join("globex", "run1") {
		t.Fatalf("results not sorted by dir: %q, %q", results[0].Dir, results[1].Dir)
	}

	// Every salvaged run is now complete and replayable in place.
	for _, dir := range []string{filepath.Join(root, "acme", "run2"), filepath.Join(root, "globex", "run1")} {
		m, err := store.Open(dirstore.New(dir), "ingest", 1)
		if err != nil {
			t.Fatalf("salvaged run %s does not open: %v", dir, err)
		}
		if !m.Salvaged {
			t.Fatalf("salvaged run %s not marked Salvaged", dir)
		}
	}

	// Idempotent: a second sweep finds nothing to do.
	results, err = dirstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("second SalvageAll sweep returned %d results, want 0", len(results))
	}
}

func TestSalvageAllAdoptsOrphanedSwap(t *testing.T) {
	root := t.TempDir()
	dir := makeRun(t, root, "acme", "run1", 12, false, true)

	// Simulate a recovery that crashed between removing the damaged run
	// and renaming the salvaged copy into place.
	tmp := dir + store.SalvageTmpSuffix
	if _, err := store.SalvageTo(dirstore.New(dir), dirstore.New(tmp)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	results, err := dirstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Adopted || results[0].Err != nil {
		t.Fatalf("orphaned swap not adopted: %+v", results)
	}
	if _, err := store.Open(dirstore.New(dir), "ingest", 1); err != nil {
		t.Fatalf("adopted run does not open: %v", err)
	}
}

func TestSalvageAllMissingRoot(t *testing.T) {
	results, err := dirstore.OpenRoot(filepath.Join(t.TempDir(), "nonexistent")).SalvageAll()
	if err != nil {
		t.Fatalf("missing root should be an empty store: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("missing root returned %d results", len(results))
	}
}

func TestReopenClearsComplete(t *testing.T) {
	st := dirstore.New(makeRun(t, t.TempDir(), "acme", "run1", 8, true, false))

	prev, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Complete {
		t.Fatal("Reopen should report the prior manifest, which was complete")
	}
	if _, err := store.Open(st, "ingest", 1); err == nil {
		t.Fatal("reopened dir should refuse Open until finalized again")
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "ingest", 1); err != nil {
		t.Fatalf("finalized-again dir should open: %v", err)
	}
}

func TestOpenRankFileAppendAndFrontier(t *testing.T) {
	st := dirstore.New(makeRun(t, t.TempDir(), "acme", "run1", 10, true, false))

	events, clock, err := store.RankFrontier(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events != 10 {
		t.Fatalf("frontier events = %d, want 10", events)
	}
	if clock == 0 {
		t.Fatal("frontier clock = 0, want last flush-mark clock")
	}

	w, resume, err := st.AppendRank(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resume {
		t.Fatal("existing rank file should resume")
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{Resume: true, ResumeClock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := enc.Observe(0, tables.Matched(0, clock+uint64(i+1), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Observe(0, tables.Unmatched(2)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events2, clock2, err := store.RankFrontier(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events2 != 15 { // 10 + 3 matched + 2 unmatched tests
		t.Fatalf("frontier after append = %d, want 15", events2)
	}
	if clock2 < clock+3 {
		t.Fatalf("frontier clock after append = %d, want >= %d", clock2, clock+3)
	}

	// A fresh rank takes the non-resume path.
	w2, resume2, err := st.AppendRank(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if resume2 {
		t.Fatal("fresh rank file should not resume")
	}
	ev0, _, err := store.RankFrontier(st, 2)
	if err != nil || ev0 != 0 {
		t.Fatalf("missing rank frontier = %d,%v want 0,nil", ev0, err)
	}
}

// TestDirRootSalvageAllSkipsForeign checks the dir sweep's isolation
// rules, mirroring shardstore's TestRootSalvageAllSkipsForeign: an
// incomplete sharded run and a garbage manifest under the same root are
// skipped with findings while the incomplete dir-layout run is salvaged.
// The sharded run must come out byte for byte as it went in, and the
// sharded sweep must still be able to recover it.
func TestDirRootSalvageAllSkipsForeign(t *testing.T) {
	root := t.TempDir()
	makeRun(t, root, "tenant", "crashed", 16, false, true)

	// An incomplete sharded run with committed data.
	shardDir := filepath.Join(root, "tenant", "sharded")
	shardRun := shardstore.New(shardDir)
	if err := shardRun.Create(store.Manifest{Ranks: 1, App: "sweep"}); err != nil {
		t.Fatal(err)
	}
	w, err := shardRun.CreateRank(0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents: 64, SeekableCuts: true,
		OnFlushPoint: func(c, ev uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: c, Events: ev, Offset: offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var clock uint64
	for _, ev := range workload.Stream(workload.StreamParams{Events: 100, Senders: 1, Disorder: 2, Seed: 9}) {
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		clock = max(clock, ev.Clock)
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
	before := snapshotTree(t, shardDir)

	// Unreadable garbage where a manifest should be.
	garbage := filepath.Join(root, "tenant", "garbage")
	if err := os.MkdirAll(garbage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(garbage, store.ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	runs, err := dirstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatalf("one foreign run aborted the whole sweep: %v", err)
	}
	got := map[string]store.RunSalvage{}
	for _, rs := range runs {
		got[rs.Dir] = rs
	}
	if rs := got["tenant/crashed"]; !rs.Salvaged || rs.Err != nil {
		t.Errorf("dir-layout run not salvaged: %+v", rs)
	}
	if rs := got["tenant/sharded"]; !rs.Skipped || rs.Salvaged || rs.Finding == "" {
		t.Errorf("sharded run not skipped with a finding: %+v", rs)
	}
	if rs := got["tenant/garbage"]; !rs.Skipped || rs.Finding == "" {
		t.Errorf("garbage manifest not skipped with a finding: %+v", rs)
	}
	after := snapshotTree(t, shardDir)
	if len(after) != len(before) {
		t.Fatalf("dir sweep changed the sharded run's files: %d before, %d after", len(before), len(after))
	}
	for path, b := range before {
		if !bytes.Equal(after[path], b) {
			t.Errorf("dir sweep changed %s in the sharded run", path)
		}
	}

	// Its own backend still recovers it.
	runs, err = shardstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range runs {
		if rs.Dir == "tenant/sharded" && (!rs.Salvaged || rs.Err != nil) {
			t.Fatalf("sharded sweep could not salvage the run the dir sweep skipped: %+v", rs)
		}
	}
	if _, err := store.Open(shardRun, "sweep", 1); err != nil {
		t.Fatal(err)
	}
	it, blob, err := store.OpenRankIter(shardRun, 0, core.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blob.Close()
	defer it.Close()
	for err == nil {
		_, err = it.Next()
	}
	if err != io.EOF || it.Events() == 0 {
		t.Fatalf("salvaged sharded run decodes %d events, err %v", it.Events(), err)
	}
}

// snapshotTree reads every regular file under dir, keyed by relative path.
func snapshotTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
