package store_test

import (
	"fmt"
	"slices"
	"testing"

	"cdcreplay/internal/dst"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

// orderProbe is a dirstore destination that logs, in order, every rank
// write, sync and close and every manifest publish that marks the run
// complete.
type orderProbe struct {
	*dirstore.DirStore
	log *[]string
}

func (p orderProbe) CreateRank(rank int) (store.BlobWriter, error) {
	w, err := p.DirStore.CreateRank(rank)
	return &probeWriter{BlobWriter: w, rank: rank, log: p.log}, err
}

func (p orderProbe) WriteManifest(m store.Manifest) error {
	if m.Complete {
		*p.log = append(*p.log, "publish")
	}
	return p.DirStore.WriteManifest(m)
}

func (p orderProbe) Finalize() error {
	*p.log = append(*p.log, "publish")
	return p.DirStore.Finalize()
}

type probeWriter struct {
	store.BlobWriter
	rank int
	log  *[]string
}

func (w *probeWriter) Write(b []byte) (int, error) {
	*w.log = append(*w.log, fmt.Sprintf("write %d", w.rank))
	return w.BlobWriter.Write(b)
}

func (w *probeWriter) Sync() error {
	*w.log = append(*w.log, fmt.Sprintf("sync %d", w.rank))
	return w.BlobWriter.Sync()
}

func (w *probeWriter) Close() error {
	*w.log = append(*w.log, fmt.Sprintf("close %d", w.rank))
	return w.BlobWriter.Close()
}

// TestSalvageToSyncsBeforePublish pins SalvageTo's durability order: every
// rank's salvaged blob is synced after its last write and before its
// writer closes, and all of that happens before the one manifest publish
// that marks the copy complete. A salvage that published first could, on
// power loss, leave a Complete manifest naming bytes that never reached
// the disk.
func TestSalvageToSyncsBeforePublish(t *testing.T) {
	src := dirstore.New(t.TempDir())
	if err := dst.CrashRecord(11, src); err != nil {
		t.Fatal(err)
	}
	var log []string
	report, err := store.SalvageTo(src, orderProbe{DirStore: dirstore.New(t.TempDir()), log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("SalvageTo of an incomplete run reported nothing to recover")
	}
	publish := slices.Index(log, "publish")
	if publish != len(log)-1 {
		t.Fatalf("publish at %d of %d events, want exactly once and last: %v", publish, len(log), log)
	}
	for r := range report.Ranks {
		write := lastIndex(log, fmt.Sprintf("write %d", r))
		sync := slices.Index(log, fmt.Sprintf("sync %d", r))
		closed := slices.Index(log, fmt.Sprintf("close %d", r))
		if write < 0 || sync < write || closed < sync {
			t.Fatalf("rank %d: last write at %d, sync at %d, close at %d; want write < sync < close: %v",
				r, write, sync, closed, log)
		}
	}
}

func lastIndex(log []string, s string) int {
	for i := len(log) - 1; i >= 0; i-- {
		if log[i] == s {
			return i
		}
	}
	return -1
}
