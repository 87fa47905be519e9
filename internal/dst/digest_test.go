package dst

import "testing"

// TestSweepDigestsPinned runs the CI dst-smoke sweeps (the cdcdst flags in
// each name, all with -short) and pins their digests. A digest covers every
// schedule's decisions and verdict, so any drift in simmpi's matching or
// delivery order, in the sequencer or in a policy fails here, not just in a
// hand comparison of cdcdst output.
func TestSweepDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{Policy: "random", Workload: "pairs", Seeds: 64}, 0x3d6b89861da60fdd},
		{Config{Policy: "random", Workload: "mcb", Seeds: 8}, 0x7058beb208266d5f},
		{Config{Policy: "reorder", Workload: "pairs", Seeds: 32, Depth: 4}, 0xcc8ddc00b940d293},
		{Config{Policy: "pct", Workload: "pairs", Seeds: 32, Depth: 3}, 0x9eecc398ac0558dd},
		{Config{Policy: "exhaustive", Workload: "pairs", Depth: 3}, 0x6095bb9af2335bc8},
	} {
		cfg := tc.cfg
		cfg.Seed, cfg.Short = 1, true
		t.Run(cfg.Policy+"/"+cfg.Workload, func(t *testing.T) {
			rep, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, rep)
			if rep.Digest != tc.want {
				t.Fatalf("digest %016x over %d schedules, want %016x", rep.Digest, rep.Schedules, tc.want)
			}
		})
	}
}
