package cdc

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cdcreplay/internal/mcb"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

const testRanks = 4

var testParams = mcb.Params{Particles: 80, TimeSteps: 2, Seed: 13, CrossProb: 0.4}

// mcbApp runs MCB and stores rank 0's order-sensitive tally into *out.
func mcbApp(out *float64, mu *sync.Mutex) App {
	return func(rank int, mpi simmpi.MPI) error {
		res, err := mcb.Run(mpi, testParams)
		if err != nil {
			return err
		}
		if rank == 0 {
			mu.Lock()
			*out = res.GlobalTally
			mu.Unlock()
		}
		return nil
	}
}

// TestRecordReplayRoundTrip is the facade's core contract: Record once,
// Replay on a differently-timed network, get the bit-identical tally.
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	var mu sync.Mutex
	var recorded float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 21, MaxJitter: 8})
	rep, err := Record(w, mcbApp(&recorded, &mu),
		WithDir(dir),
		WithApp("mcb"),
		WithParams(map[string]string{"particles": "80"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != testRanks {
		t.Fatalf("report ranks = %d", len(rep.Ranks))
	}
	if rep.TotalRows() == 0 || rep.TotalBytes() == 0 {
		t.Fatalf("empty record: rows=%d bytes=%d", rep.TotalRows(), rep.TotalBytes())
	}
	for _, rr := range rep.Ranks {
		if rr.Queue.Enqueued == 0 {
			t.Errorf("rank %d enqueued nothing", rr.Rank)
		}
	}

	var replayed float64
	w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 99, MaxJitter: 8})
	rrep, err := Replay(w2, mcbApp(&replayed, &mu), WithDir(dir), WithApp("mcb"))
	if err != nil {
		t.Fatal(err)
	}
	if replayed != recorded {
		t.Fatalf("tally diverged: recorded %.17g, replayed %.17g", recorded, replayed)
	}
	if rrep.Released() == 0 {
		t.Error("replay released no events")
	}
	if rrep.Salvaged {
		t.Error("clean record reported as salvaged")
	}
	if live, notes := rrep.Live(); live {
		t.Errorf("clean replay went live: %v", notes)
	}
	if rrep.Manifest.Params["particles"] != "80" {
		t.Errorf("manifest params = %v", rrep.Manifest.Params)
	}
}

// TestRecordWithObsPopulatesRegistry wires one registry through a facade
// session and checks each pipeline layer reported in.
func TestRecordWithObsPopulatesRegistry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var tally float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 22, MaxJitter: 8, Obs: reg})
	rep, err := Record(w, mcbApp(&tally, &mu),
		WithDir(dir), WithApp("mcb"), WithObs(reg), WithFlushEveryRows(64))
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	// Every row the app threads enqueued is drained and counted by the CDC
	// goroutines before Close returns. (record.rows exceeds the encoder's
	// table rows: failed tests fold into unmatched runs before encoding.)
	var enqueued uint64
	for _, rr := range rep.Ranks {
		enqueued += rr.Queue.Enqueued
	}
	if got := s.Counter("record.rows"); got != enqueued {
		t.Errorf("record.rows = %d, RateStats say %d", got, enqueued)
	}
	if s.Counter("record.rows") < rep.TotalRows() {
		t.Errorf("record.rows = %d < encoder rows %d", s.Counter("record.rows"), rep.TotalRows())
	}
	if got := s.Counter("encode.bytes.gzip"); got != uint64(rep.TotalBytes()) {
		t.Errorf("encode.bytes.gzip = %d, report says %d", got, rep.TotalBytes())
	}
	for _, name := range []string{"record.queue.enqueued", "record.flushes",
		"encode.chunks", "encode.bytes.raw", "encode.bytes.re",
		"encode.bytes.pe", "encode.bytes.lpe", "net.messages"} {
		if s.Counter(name) == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}

	reg2 := obs.NewRegistry()
	w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 23, MaxJitter: 8, Obs: reg2})
	rrep, err := Replay(w2, mcbApp(&tally, &mu), WithDir(dir), WithApp("mcb"), WithObs(reg2))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Snapshot().Counter("replay.releases"); got != rrep.Released() {
		t.Errorf("replay.releases = %d, report says %d", got, rrep.Released())
	}
}

// TestRecordFailureLeavesDirIncomplete: a failing app must not finalize the
// manifest, and Replay must refuse the torn directory.
func TestRecordFailureLeavesDirIncomplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	boom := errors.New("app exploded")
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 3})
	_, err := Record(w, func(rank int, mpi simmpi.MPI) error {
		if rank == 1 {
			return boom
		}
		return nil
	}, WithDir(dir))
	if !errors.Is(err, boom) {
		t.Fatalf("record error = %v, want the app error", err)
	}
	w2 := simmpi.NewWorld(2, simmpi.Options{Seed: 4})
	_, err = Replay(w2, func(int, simmpi.MPI) error { return nil }, WithDir(dir))
	if !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("replay of torn dir = %v, want ErrIncomplete", err)
	}
}

func TestSessionsRejectInvalidOptions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 5})
	app := func(int, simmpi.MPI) error { return nil }
	// Option errors must fire before the directory is created.
	if _, err := Record(w, app, WithDir(dir), WithDurable()); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Record durable-without-cadence = %v", err)
	}
	if _, err := Record(w, app, WithDir(dir), WithTimeout(1)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Record with replay option = %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("rejected session still created the record directory")
	}
	if _, err := Record(w, nil, WithDir(dir)); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := Replay(w, app, WithDir(dir), WithChunkEvents(8)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Replay with record option = %v", err)
	}
}

// TestStorageOptionValidation pins the storage-destination cross checks:
// exactly one destination, layout only alongside WithDir, and typed
// *OptionError values naming the offending option.
func TestStorageOptionValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 6})
	app := func(int, simmpi.MPI) error { return nil }
	cases := []struct {
		name string
		run  func() error
		want string // option name the *OptionError must carry
	}{
		{"no destination", func() error {
			_, err := Record(w, app)
			return err
		}, "WithDir"},
		{"store and dir", func() error {
			_, err := Record(w, app, WithDir(dir), WithStore(dirstore.New(t.TempDir())))
			return err
		}, "WithStore"},
		{"store and layout", func() error {
			_, err := Record(w, app, WithStore(dirstore.New(t.TempDir())), WithStoreLayout(LayoutSharded))
			return err
		}, "WithStoreLayout"},
		{"layout without dir", func() error {
			_, err := Record(w, app, WithStoreLayout(LayoutSharded))
			return err
		}, "WithStoreLayout"},
		{"unknown layout", func() error {
			_, err := Record(w, app, WithDir(dir), WithStoreLayout("btrfs"))
			return err
		}, "WithStoreLayout"},
		{"empty dir", func() error {
			_, err := Record(w, app, WithDir(""))
			return err
		}, "WithDir"},
		{"nil store", func() error {
			_, err := Record(w, app, WithStore(nil))
			return err
		}, "WithStore"},
		{"layout on replay", func() error {
			_, err := Replay(w, app, WithDir(dir), WithStoreLayout(LayoutSharded))
			return err
		}, "WithStoreLayout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("err = %v, want ErrInvalidOption", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OptionError", err)
			}
			if oe.Option != tc.want {
				t.Errorf("OptionError.Option = %q, want %q", oe.Option, tc.want)
			}
		})
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("rejected session still created the record directory")
	}
}

// TestRecordReplayViaInjectedStore runs the whole facade round trip over
// an injected store: replay reads through the same Store value the
// recorder wrote, with no WithDir on either side.
func TestRecordReplayViaInjectedStore(t *testing.T) {
	st := dirstore.New(t.TempDir())
	var mu sync.Mutex
	var recorded, replayed float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 71, MaxJitter: 8})
	rep, err := Record(w, mcbApp(&recorded, &mu), WithStore(st), WithApp("mcb"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Layout != LayoutDir {
		t.Errorf("report layout = %q, want %q", rep.Layout, LayoutDir)
	}
	w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 72, MaxJitter: 8})
	if _, err := Replay(w2, mcbApp(&replayed, &mu), WithStore(st), WithApp("mcb")); err != nil {
		t.Fatal(err)
	}
	if replayed != recorded {
		t.Fatalf("tally diverged: recorded %.17g, replayed %.17g", recorded, replayed)
	}
}

// TestRecordReplaySharded records under the sharded layout and replays
// without naming it: Replay sniffs the layout from the manifest.
func TestRecordReplaySharded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	var mu sync.Mutex
	var recorded, replayed float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 81, MaxJitter: 8})
	rep, err := Record(w, mcbApp(&recorded, &mu),
		WithDir(dir), WithStoreLayout(LayoutSharded), WithApp("mcb"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Layout != LayoutSharded {
		t.Errorf("report layout = %q, want %q", rep.Layout, LayoutSharded)
	}
	w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 82, MaxJitter: 8})
	rrep, err := Replay(w2, mcbApp(&replayed, &mu), WithDir(dir), WithApp("mcb"))
	if err != nil {
		t.Fatal(err)
	}
	if replayed != recorded {
		t.Fatalf("tally diverged: recorded %.17g, replayed %.17g", recorded, replayed)
	}
	if rrep.Manifest.Layout != LayoutSharded {
		t.Errorf("manifest layout = %q, want %q", rrep.Manifest.Layout, LayoutSharded)
	}
}

// TestRecordParallelEncode records through the parallel encode pipeline,
// checks the replay tally is identical, and streams the resulting rank
// file through the facade reader.
func TestRecordParallelEncode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	var mu sync.Mutex
	var recorded float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 51, MaxJitter: 8})
	rep, err := Record(w, mcbApp(&recorded, &mu),
		WithDir(dir),
		WithApp("mcb"),
		WithEncodeWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRows() == 0 || rep.TotalBytes() == 0 {
		t.Fatalf("empty record: rows=%d bytes=%d", rep.TotalRows(), rep.TotalBytes())
	}

	var replayed float64
	w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 52, MaxJitter: 8})
	if _, err := Replay(w2, mcbApp(&replayed, &mu), WithDir(dir), WithApp("mcb")); err != nil {
		t.Fatal(err)
	}
	if replayed != recorded {
		t.Fatalf("tally diverged: recorded %.17g, replayed %.17g", recorded, replayed)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenRankRecord(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	kinds := map[FrameKind]int{}
	for {
		f, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds[f.Kind]++
		if f.Kind == FrameChunk && f.CallsiteName == "" {
			t.Errorf("chunk frame for callsite %d has no registered name", f.Callsite)
		}
	}
	if kinds[FrameChunk] == 0 || kinds[FrameCallsite] == 0 || kinds[FrameFlushPoint] == 0 {
		t.Errorf("frame kinds seen = %v, want all three represented", kinds)
	}
	if rd.Frames() == 0 || rd.Events() == 0 || rd.FlushPoints() == 0 {
		t.Errorf("reader totals: frames=%d events=%d flushPoints=%d",
			rd.Frames(), rd.Events(), rd.FlushPoints())
	}
}

// TestWithAppCrossCheck: replay with a different app name refuses the
// record.
func TestWithAppCrossCheck(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	var mu sync.Mutex
	var tally float64
	w := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 31, MaxJitter: 4})
	if _, err := Record(w, mcbApp(&tally, &mu), WithDir(dir), WithApp("mcb")); err != nil {
		t.Fatal(err)
	}
	w2 := simmpi.NewWorld(testRanks, simmpi.Options{Seed: 32, MaxJitter: 4})
	if _, err := Replay(w2, mcbApp(&tally, &mu), WithDir(dir), WithApp("jacobi")); err == nil {
		t.Fatal("app-name mismatch accepted")
	}
}
