package store_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

// oldManifestJSON is a manifest as recorders wrote it while the manifest
// still carried the observe queue's idle-backoff profile.
const oldManifestJSON = `{
  "version": 2,
  "ranks": 2,
  "app": "mcb",
  "complete": true,
  "spsc_backoff": {
    "spin_before_yield": 64,
    "yield_before_nap": 1024,
    "max_nap_ns": 200000
  },
  "layout": "dir"
}
`

// FuzzDecodeManifest feeds arbitrary bytes to DecodeManifest, which every
// root sweep runs over manifest.json files found on disk. Decoding must
// never panic, and anything that decodes must survive a republish:
// EncodeManifest then DecodeManifest yields an equal Manifest. JSON cannot
// tell an empty params map or chunk index from an absent one, so those
// compare as absent.
func FuzzDecodeManifest(f *testing.F) {
	seeds := []store.Manifest{
		{Ranks: 2, App: "mcb", Params: map[string]string{"particles": "100"}, Layout: store.LayoutDir,
			Index: [][]store.IndexEntry{{{Epoch: 1, Clock: 7, Events: 3, Offset: 120}}, nil}},
		{Ranks: 1, App: "sweep", Complete: true, Salvaged: true, Layout: store.LayoutSharded, SeekableCuts: true,
			Index:  [][]store.IndexEntry{{{Epoch: 1, Clock: 9, Events: 4, Offset: 80}, {Epoch: 2, Clock: 12, Events: 9, Offset: 161}}},
			Shards: &store.ShardMap{Fanout: 16, Ranks: [][]store.Fragment{{{Path: "shards/s00/r0000.f0001.cdc", Size: 161}}}}},
		{Ranks: 3, App: "dst-exchange", Layout: store.LayoutSharded, SeekableCuts: true},
		{Ranks: 4, App: "legacy", Complete: true}, // no layout field: reads as dir
	}
	for _, m := range seeds {
		m.Version = store.ManifestVersion
		buf, err := store.EncodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte(oldManifestJSON))
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"version":99,"ranks":1,"app":"x"}`))
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := store.DecodeManifest(buf)
		if err != nil {
			return
		}
		out, err := store.EncodeManifest(m)
		if err != nil {
			t.Fatalf("decoded manifest does not encode: %v", err)
		}
		back, err := store.DecodeManifest(out)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v\n%s", err, out)
		}
		if len(m.Params) == 0 {
			m.Params = nil
		}
		if len(m.Index) == 0 {
			m.Index = nil
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", back, m)
		}
	})
}

// TestOpenIgnoresSpscBackoff: a complete run whose manifest still carries
// the old idle-backoff profile opens, and yields the same Manifest as the
// same run without it.
func TestOpenIgnoresSpscBackoff(t *testing.T) {
	dir := t.TempDir()
	st := dirstore.New(dir)
	recordRanks(t, st, 2, 2)
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	want, err := store.Open(st, "journal", 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, store.ManifestName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cur, old map[string]json.RawMessage
	if err := json.Unmarshal(buf, &cur); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(oldManifestJSON), &old); err != nil {
		t.Fatal(err)
	}
	var added []string
	for k, v := range old {
		if _, ok := cur[k]; !ok {
			cur[k] = v
			added = append(added, k)
		}
	}
	if len(added) != 1 {
		t.Fatalf("old manifest adds keys %v to the current one, want exactly the backoff profile", added)
	}
	if buf, err = json.Marshal(cur); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Open(dirstore.New(dir), "journal", 2)
	if err != nil {
		t.Fatalf("manifest with the %s key refused: %v", added[0], err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the %s key changed the opened manifest:\n got %+v\nwant %+v", added[0], got, want)
	}
}
