// Package dirstore is the store.Store backend for the flat
// directory-per-run layout: one rankNNNN.cdc file per rank beside
// manifest.json, byte-compatible with records written before the Store
// API existed (pinned by TestDirstoreByteCompatGolden). On top of the
// layout it keeps the Store contract: per-epoch index commits and
// epoch-pinned concurrent readers.
//
//	<run>/manifest.json
//	<run>/rank0003.cdc   (rank 3's record blob)
//	<run>/rank0003.idx   (rank 3's index journal, until Finalize)
//
// manifest.json plus the per-rank index journals are the directory's
// commit record (see store.LoadManifest): Create writes the manifest
// atomically with Complete unset, each Commit appends one record to its
// rank's journal, and Finalize publishes the folded index with Complete
// set, then removes the journals. A crash at any point therefore leaves
// either no manifest or one that says the run did not finish, and
// store.Open refuses such a directory instead of replaying a torn record.
//
// Cuts are non-seekable here (gzip sync flush, not member boundaries), so
// the record bytes stay identical to historical records; index offsets
// still bound pinned reads exactly.
package dirstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"cdcreplay/internal/store"
)

// DirStore is one run in the dir layout. The zero value is unusable; use
// New. Safe for one writer per rank plus concurrent readers in-process:
// each rank's writer appends only to its own blob and journal.
type DirStore struct {
	dir string
	// mu serializes the manifest rewrites that read the manifest first
	// (Finalize, Reopen, MarkFinished), so none loses another's change.
	mu sync.Mutex
	// complete is the last Complete manifest load decoded, with the
	// manifest.json it came from; nil until one is seen.
	complete atomic.Pointer[completeManifest]
}

// completeManifest is a decoded Complete manifest and the FileInfo of the
// manifest.json it was read from.
type completeManifest struct {
	fi os.FileInfo
	m  store.Manifest
}

// New returns the run store rooted at dir. Nothing is touched until
// Create (recording) or a read method (replay).
func New(dir string) *DirStore { return &DirStore{dir: dir} }

// RankPath returns the record file path of rank inside run directory dir.
func RankPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.cdc", rank))
}

// Dir exposes the underlying directory for operator-facing messages.
func (s *DirStore) Dir() string { return s.dir }

// Layout reports store.LayoutDir.
func (s *DirStore) Layout() string { return store.LayoutDir }

// Seekable reports false: cuts are gzip sync flushes, byte-compatible with
// pre-Store records, so index offsets are pin bounds but not seek targets.
func (s *DirStore) Seekable() bool { return false }

// Manifest returns the current manifest, with the index journals of an
// incomplete run folded in.
func (s *DirStore) Manifest() (store.Manifest, error) {
	m, err := s.load()
	return m.Clone(), err
}

// load is Manifest for callers that only read the result, which may share
// its slices with the remembered manifest. A Complete manifest is decoded
// once and remembered against manifest.json's FileInfo (same file, size
// and mtime): every republish renames a new file into place, so a Reopen
// or Finalize through any handle shows as a different FileInfo. Incomplete
// runs are decoded on every call, since their journals change at every
// commit. The stat precedes the read, so a republish between the two
// leaves the remembered FileInfo older than the bytes, which costs one
// more decode and never a stale hit.
func (s *DirStore) load() (store.Manifest, error) {
	fi, statErr := os.Stat(filepath.Join(s.dir, store.ManifestName))
	c := s.complete.Load()
	if statErr == nil && c != nil && os.SameFile(c.fi, fi) &&
		c.fi.Size() == fi.Size() && c.fi.ModTime().Equal(fi.ModTime()) {
		return c.m, nil
	}
	m, err := store.LoadManifest(s.dir)
	if err == nil && statErr == nil && m.Complete {
		s.complete.Store(&completeManifest{fi: fi, m: m})
	}
	return m, err
}

// Create prepares the run directory (creating it if needed) and publishes
// m, stamped with the layout, with Complete unset and no index. Rank files
// and index journals of a previous record are removed first, so a shorter
// re-record cannot leave stale ranks or cuts behind.
func (s *DirStore) Create(m store.Manifest) error {
	if m.Ranks <= 0 {
		return fmt.Errorf("dirstore: manifest needs a positive rank count, got %d", m.Ranks)
	}
	m.Version = store.ManifestVersion
	m.Complete = false
	m.Index = nil
	m.Finished = nil
	m.Shards = nil
	m.Layout = store.LayoutDir
	m.SeekableCuts = false
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	old, err := filepath.Glob(filepath.Join(s.dir, "rank*.cdc"))
	if err != nil {
		return err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	if err := store.RemoveJournals(s.dir); err != nil {
		return err
	}
	return store.WriteManifestFile(s.dir, m)
}

// WriteManifest republishes m atomically (a Complete m also retires the
// index journals).
func (s *DirStore) WriteManifest(m store.Manifest) error {
	return store.WriteManifestFile(s.dir, m)
}

// Finalize publishes the folded index as the Complete manifest and
// removes the index journals.
func (s *DirStore) Finalize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.Manifest()
	if err != nil {
		return err
	}
	m.Complete = true
	return s.WriteManifest(m)
}

// Reopen clears the Complete marker for appending, returning the manifest
// as it was before. The rank files are left untouched; a crash while
// appending is then seen as an incomplete run, not a finished one.
func (s *DirStore) Reopen() (store.Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return store.ReopenManifestFile(s.dir)
}

// MarkFinished adds rank to the manifest's finished ranks.
func (s *DirStore) MarkFinished(rank int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return store.MarkFinishedFile(s.dir, rank)
}

// CreateRank opens rank's record file for writing from scratch.
func (s *DirStore) CreateRank(rank int) (store.BlobWriter, error) {
	f, err := os.Create(RankPath(s.dir, rank))
	if err != nil {
		return nil, err
	}
	return s.openWriter(rank, f, 0)
}

// AppendRank opens rank's record file for appending, creating it if
// absent. The writer's commit base is the existing size and the last
// committed entry's cumulative events, so resumed cuts index the whole
// blob, not just the new tail.
func (s *DirStore) AppendRank(rank int) (store.BlobWriter, bool, error) {
	f, err := os.OpenFile(RankPath(s.dir, rank), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the stat error is already propagating
		return nil, false, err
	}
	w, err := s.openWriter(rank, f, fi.Size())
	return w, fi.Size() > 0, err
}

// openWriter opens rank's index journal beside the blob file f (whose
// existing size is baseOffset; resumed cuts count events on from the
// rank's last committed cut). On error f is closed.
func (s *DirStore) openWriter(rank int, f *os.File, baseOffset int64) (*blobWriter, error) {
	m, err := s.load()
	var j *store.Journal
	if err == nil {
		j, err = store.OpenJournal(s.dir, rank, len(m.RankIndex(rank)))
	}
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the open error is already propagating
		return nil, err
	}
	w := &blobWriter{dir: s.dir, f: f, j: j, baseOffset: baseOffset}
	if baseOffset > 0 {
		w.baseEvents = m.LastCut(rank).Events
	}
	return w, nil
}

// OpenRank opens rank's blob for reading, pinned to the last committed
// index offset when the run is incomplete (the concurrent-reader rule:
// never hand out bytes past the committed epoch line).
func (s *DirStore) OpenRank(rank int) (store.BlobReader, error) {
	m, err := s.load()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(RankPath(s.dir, rank))
	if err != nil {
		if !m.Complete && errors.Is(err, fs.ErrNotExist) {
			// The writer has not created the blob yet; readers of a live
			// run see the empty committed prefix, not a missing-file error.
			return store.EmptyBlob(), nil
		}
		return nil, err
	}
	size := int64(0)
	if m.Complete {
		fi, err := f.Stat()
		if err != nil {
			f.Close() //cdc:allow(errsink) best-effort cleanup; the stat error is already propagating
			return nil, err
		}
		size = fi.Size()
	} else {
		size = m.LastCut(rank).Offset
	}
	return &fileBlob{SectionReader: io.NewSectionReader(f, 0, size), f: f}, nil
}

// RawRank opens rank's full blob, torn tail included (the salvage and
// frontier-scan view). A rank that never wrote yields fs.ErrNotExist.
func (s *DirStore) RawRank(rank int) (store.BlobReader, error) {
	f, err := os.Open(RankPath(s.dir, rank))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the stat error is already propagating
		return nil, err
	}
	return &fileBlob{SectionReader: io.NewSectionReader(f, 0, fi.Size()), f: f}, nil
}

// Salvage recovers the run in place with a crash-safe sibling swap:
//
//  1. store.SalvageTo writes the salvaged prefix into <run>.salvaged (a
//     stale one from an interrupted recovery is removed first);
//  2. the damaged run directory is removed;
//  3. <run>.salvaged is renamed over it and the parent directory fsynced,
//     so the rename survives power loss.
//
// A crash before step 2 leaves the damaged run intact, and the next
// salvage redoes the copy; a crash between steps 2 and 3 leaves only
// <run>.salvaged, which the root sweep adopts. Complete runs are untouched
// (nil report). A run another layout wrote is refused, not rewritten.
func (s *DirStore) Salvage() (*store.SalvageReport, error) {
	m, err := s.load()
	if err != nil || m.Complete {
		return nil, err
	}
	if m.Layout != "" && m.Layout != store.LayoutDir {
		return nil, fmt.Errorf("dirstore: %s: run has layout %q", s.dir, m.Layout)
	}
	tmp := s.dir + store.SalvageTmpSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	report, err := store.SalvageTo(s, New(tmp))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, s.dir); err != nil {
		return nil, err
	}
	return report, store.SyncDir(filepath.Dir(s.dir))
}

// blobWriter is one rank's append stream: writes go straight to the file,
// Commit translates the encoder's writer-relative cut to blob-absolute
// coordinates and appends it to the rank's index journal.
type blobWriter struct {
	dir        string
	f          *os.File
	j          *store.Journal
	baseOffset int64
	baseEvents uint64
	// dirSynced records that the run directory was fsynced after this
	// writer opened its files, making their entries durable.
	dirSynced bool
}

func (w *blobWriter) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w *blobWriter) Sync() error                 { return w.f.Sync() }

func (w *blobWriter) Close() error {
	return errors.Join(w.f.Close(), w.j.Close())
}

// Commit appends the cut to the journal. The first commit also fsyncs the
// run directory, so the blob and journal files it names survive a crash
// even when they were created by this writer.
func (w *blobWriter) Commit(cut store.Cut) error {
	if err := w.j.Append(store.IndexEntry{
		Clock:  cut.Clock,
		Events: w.baseEvents + cut.Events,
		Offset: w.baseOffset + cut.Offset,
	}); err != nil || w.dirSynced {
		return err
	}
	if err := store.SyncDir(w.dir); err != nil {
		return err
	}
	w.dirSynced = true
	return nil
}

// fileBlob is a (possibly pinned) read view of one rank file.
type fileBlob struct {
	*io.SectionReader
	f *os.File
}

func (b *fileBlob) Close() error { return b.f.Close() }

var _ store.Store = (*DirStore)(nil)

// Root is a multi-run dir-layout store (the ingest daemon's record root).
type Root struct{ root string }

// OpenRoot returns the multi-run store rooted at root. A missing root is
// an empty store.
func OpenRoot(root string) *Root { return &Root{root: root} }

// Open returns the run store at name (slash-separated, e.g. tenant/run).
func (r *Root) Open(name string) (store.Store, error) {
	return New(filepath.Join(r.root, filepath.FromSlash(name))), nil
}

// SalvageAll recovers every incomplete dir-layout run under the root in
// place (see store.SalvageRoot: garbage manifests and runs of other
// layouts are skipped with a finding).
func (r *Root) SalvageAll() ([]store.RunSalvage, error) {
	return store.SalvageRoot(r.root, store.LayoutDir, func(dir string) store.Store { return New(dir) })
}

var _ store.Root = (*Root)(nil)
