package store_test

import (
	"reflect"
	"testing"

	"cdcreplay/internal/store"
)

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
			Spsc:   &store.SpscBackoff{SpinBeforeYield: 64, YieldBeforeNap: 16, MaxNapNs: 50000},
			Index:  [][]store.IndexEntry{{{Epoch: 1, Clock: 9, Events: 4, Offset: 80}, {Epoch: 2, Clock: 12, Events: 9, Offset: 161}}},
			Shards: &store.ShardMap{Fanout: 16, Ranks: [][]store.Fragment{{{Path: "shards/s00/r0000.f0001.cdc", Size: 161}}}}},
		{Ranks: 3, App: "dst-exchange", Layout: store.LayoutMemory, SeekableCuts: true},
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
