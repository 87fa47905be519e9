package dirstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/dst"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/storetest"
)

func TestDirstoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store {
		return dirstore.New(filepath.Join(t.TempDir(), "run"))
	})
}

// TestDirstoreByteCompatGolden pins the redesign's byte-compatibility
// promise: a run recorded through the dirstore backend produces rank
// files byte-identical to the raw encoder streams the pre-Store dir
// layout wrote (dirstore keeps SeekableCuts off, and index commits touch
// only the manifest). If this test breaks, historical records and the new
// layout have diverged.
func TestDirstoreByteCompatGolden(t *testing.T) {
	opts := core.EncoderOptions{ChunkEvents: 64}
	want, err := dst.DeterministicRecord("exchange", 1, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := dst.DeterministicRecordTo("exchange", 1, true, opts, dirstore.New(dir)); err != nil {
		t.Fatal(err)
	}
	for rank, wantBytes := range want {
		got, err := os.ReadFile(dirstore.RankPath(dir, rank))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("rank %d: dirstore blob (%d bytes) differs from pre-Store dir-layout bytes (%d bytes)",
				rank, len(got), len(wantBytes))
		}
	}
}
