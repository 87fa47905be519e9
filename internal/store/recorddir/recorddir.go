// Package recorddir is the layout engine for the flat directory-per-run
// record format: one CDC record file per rank plus a JSON manifest
// describing the run. It predates the store.Store API and remains the
// byte-level ground truth for that layout; the dirstore backend wraps it
// behind the Store interface, and nothing outside internal/store should
// need the path-based functions here.
//
// The manifest doubles as the directory's commit record: Create writes it
// atomically (temp file + rename + directory fsync) with Complete unset,
// and Finalize flips Complete after every rank closed cleanly. A crash at
// any point therefore leaves either no manifest or one that says the run
// did not finish — Open refuses such a directory and points the operator at
// Salvage instead of silently replaying a torn record.
package recorddir

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cdcreplay/internal/store"
)

// ManifestName is the metadata file's name inside a record directory.
const ManifestName = store.ManifestName

// ManifestVersion guards against format drift (see store.ManifestVersion).
const ManifestVersion = store.ManifestVersion

// ErrIncomplete marks a record directory whose run never finished cleanly —
// the manifest exists but Complete was never set. Salvage can usually
// recover a consistent prefix.
var ErrIncomplete = store.ErrIncomplete

// Manifest describes a recorded run (the store.Manifest type; recorddir
// reads and writes the same JSON).
type Manifest = store.Manifest

// SpscBackoff is the manifest form of spsc.Backoff.
type SpscBackoff = store.SpscBackoff

// RankPath returns the record file path for a rank.
func RankPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.cdc", rank))
}

func writeManifest(dir string, m Manifest) error {
	return store.WriteManifestFile(dir, m)
}

func readManifest(dir string) (Manifest, error) {
	return store.ReadManifestFile(dir)
}

// Create prepares dir (creating it if needed) and writes the manifest with
// Complete unset; call Finalize after every rank's record closed cleanly.
// Existing rank files from a previous record are removed so a shorter
// re-record cannot leave stale ranks behind, and any stale chunk index is
// dropped with them.
func Create(dir string, m Manifest) error {
	if m.Ranks <= 0 {
		return fmt.Errorf("recorddir: manifest needs a positive rank count, got %d", m.Ranks)
	}
	m.Version = ManifestVersion
	m.Complete = false
	m.Index = nil
	m.Shards = nil
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	old, err := filepath.Glob(filepath.Join(dir, "rank*.cdc"))
	if err != nil {
		return err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return writeManifest(dir, m)
}

// Finalize marks the record complete. Call it only after every rank's
// record file has been written and closed cleanly.
func Finalize(dir string) error {
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	m.Complete = true
	return writeManifest(dir, m)
}

// CreateRankFile opens the rank's record file for writing.
func CreateRankFile(dir string, rank int) (*os.File, error) {
	return os.Create(RankPath(dir, rank))
}

// Open reads and validates a record directory's manifest: version,
// completeness, rank count, optional app name, and the presence of every
// rank file. Directories of crashed runs fail with ErrIncomplete.
func Open(dir string, wantApp string, wantRanks int) (Manifest, error) {
	m, err := readManifest(dir)
	if err != nil {
		return m, err
	}
	if !m.Complete {
		return m, fmt.Errorf("%w: %s (run cdcinspect salvage to recover a prefix)", ErrIncomplete, dir)
	}
	if wantApp != "" && m.App != wantApp {
		return m, fmt.Errorf("recorddir: record is of app %q, not %q", m.App, wantApp)
	}
	if wantRanks != 0 && m.Ranks != wantRanks {
		return m, fmt.Errorf("recorddir: record has %d ranks, replay world has %d", m.Ranks, wantRanks)
	}
	for rank := 0; rank < m.Ranks; rank++ {
		if _, err := os.Stat(RankPath(dir, rank)); err != nil {
			return m, fmt.Errorf("recorddir: missing record for rank %d: %w", rank, err)
		}
	}
	return m, nil
}

// ReadManifest reads a run directory's manifest without the completeness
// and identity checks Open applies — the ingest attach path expects
// in-progress (and, before salvage, crashed) runs.
func ReadManifest(dir string) (Manifest, error) { return readManifest(dir) }

// Reopen marks an existing record directory as in-progress again so new
// events can be appended to its rank records (core.EncoderOptions.Resume).
// It inverts Finalize: the manifest's Complete marker is cleared, so a
// crash while appending is detected on the next Open/SalvageAll instead of
// being mistaken for a finished run. The rank files themselves are left
// untouched. Returns the manifest as it was before clearing.
func Reopen(dir string) (Manifest, error) {
	m, err := readManifest(dir)
	if err != nil {
		return m, err
	}
	prev := m.Clone()
	m.Complete = false
	if err := writeManifest(dir, m); err != nil {
		return prev, err
	}
	return prev, nil
}

// OpenRankFileAppend opens a rank's record file for appending, creating it
// if absent. resume reports whether the file already has content — in that
// case the caller must write through core.NewFrameWriterResume (the magic
// header is already present); a fresh file takes the ordinary writer.
func OpenRankFileAppend(dir string, rank int) (f *os.File, resume bool, err error) {
	path := RankPath(dir, rank)
	fi, err := os.Stat(path)
	switch {
	case err == nil:
		resume = fi.Size() > 0
	case errors.Is(err, os.ErrNotExist):
		// fresh file
	default:
		return nil, false, err
	}
	f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	return f, resume, nil
}
