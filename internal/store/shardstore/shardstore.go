// Package shardstore is the store.Store backend for the sharded layout:
// rank blobs spread across fan-out shard subdirectories as append-only
// fragment files, with a manifest-recorded shard map and size-tiered
// compaction of accumulated fragments.
//
//	<run>/manifest.json
//	<run>/rank0003.idx                 (rank 3's index journal, until Finalize)
//	<run>/shards/s03/r0003.f0001.cdc   (rank 3, fragment 1)
//	<run>/shards/s03/r0003.f0002.cdc   (rank 3, fragment 2: a resume)
//
// A rank lives in shard rank % fanout; its logical blob is the in-order
// byte concatenation of its fragments (only the first carries the record
// magic — resumed encoders open a bare gzip member, so concatenation reads
// as one stream). Index offsets are blob-absolute, which concatenation
// preserves, and compaction only concatenates adjacent fragments, so
// neither resume nor compaction invalidates a committed index entry.
//
// The manifest is the commit point for every structural change: fragments
// are registered before bytes land in them, readers cap at committed
// index offsets (so unreferenced or torn tails are invisible), and both
// salvage and compaction write new files first, publish the manifest
// atomically, then delete old files best-effort. A crash at any point
// leaves either the old manifest naming the old files or the new manifest
// naming the new ones. Cuts are not structural: each Commit appends one
// record to its rank's index journal (see store.LoadManifest), and the
// folded index reaches manifest.json at the next publish.
//
// Cuts are seekable: the encoder closes a gzip member at every flush
// point, so committed index offsets are random-access decode points
// (core.OpenRecordAt) — the epoch-aligned seek ROADMAP O2/O4 need.
package shardstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sync"

	"cdcreplay/internal/store"
)

// DefaultFanout is the shard-directory count for new runs.
const DefaultFanout = 16

// DefaultCompactAt is the per-rank fragment count that triggers a
// compaction pass on the next AppendRank.
const DefaultCompactAt = 8

// ShardStore is one run in the sharded layout. Use New; safe for one
// writer per rank plus concurrent readers in-process.
type ShardStore struct {
	dir string
	// mu serializes manifest read-modify-write (fragment registration,
	// compaction, lifecycle publishes) across rank writers. Commits append
	// to per-rank journals and do not take it.
	mu sync.Mutex
}

// New returns the sharded run store rooted at dir. Runs it Creates fan
// out over DefaultFanout shard directories; existing runs keep their
// manifest's recorded fanout.
func New(dir string) *ShardStore { return &ShardStore{dir: dir} }

// Dir exposes the underlying directory for operator-facing messages.
func (s *ShardStore) Dir() string { return s.dir }

// Layout reports store.LayoutSharded.
func (s *ShardStore) Layout() string { return store.LayoutSharded }

// Seekable reports true: cuts end gzip members, so committed index
// offsets decode directly.
func (s *ShardStore) Seekable() bool { return true }

// Manifest returns the current manifest, with the index journals of an
// incomplete run folded in.
func (s *ShardStore) Manifest() (store.Manifest, error) {
	return store.LoadManifest(s.dir)
}

// Create initializes the run directory: stale shards and index journals
// from a previous run are removed and the manifest (with an empty shard
// map) is published with Complete unset.
func (s *ShardStore) Create(m store.Manifest) error {
	if m.Ranks <= 0 {
		return fmt.Errorf("shardstore: manifest needs a positive rank count, got %d", m.Ranks)
	}
	m.Version = store.ManifestVersion
	m.Complete = false
	m.Index = nil
	m.Finished = nil
	m.Layout = store.LayoutSharded
	m.SeekableCuts = true
	m.Shards = &store.ShardMap{Fanout: DefaultFanout, Ranks: make([][]store.Fragment, m.Ranks)}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(s.dir, "shards")); err != nil {
		return err
	}
	if err := store.RemoveJournals(s.dir); err != nil {
		return err
	}
	return store.WriteManifestFile(s.dir, m)
}

// WriteManifest republishes m atomically (a Complete m also retires the
// index journals).
func (s *ShardStore) WriteManifest(m store.Manifest) error {
	return store.WriteManifestFile(s.dir, m)
}

// Finalize publishes the folded index, with every fragment's Size
// refreshed, as the Complete manifest and removes the index journals.
func (s *ShardStore) Finalize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.Manifest()
	if err != nil {
		return err
	}
	if m.Shards != nil {
		for r := range m.Shards.Ranks {
			if err := s.refreshSizes(&m, r); err != nil {
				return err
			}
		}
	}
	m.Complete = true
	return store.WriteManifestFile(s.dir, m)
}

// Reopen clears the Complete marker for appending, returning the manifest
// as it was before.
func (s *ShardStore) Reopen() (store.Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return store.ReopenManifestFile(s.dir)
}

// MarkFinished adds rank to the manifest's finished ranks.
func (s *ShardStore) MarkFinished(rank int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return store.MarkFinishedFile(s.dir, rank)
}

// CreateRank opens rank's blob for writing from scratch: existing
// fragments are dropped and a fresh first fragment is registered.
func (s *ShardStore) CreateRank(rank int) (store.BlobWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	if err := s.checkShardMap(&m, rank); err != nil {
		return nil, err
	}
	old := m.Shards.Ranks[rank]
	m.Shards.Ranks[rank] = nil
	f, frag, err := s.newFragment(&m, rank)
	if err != nil {
		return nil, err
	}
	m.Shards.Ranks[rank] = []store.Fragment{frag}
	w, err := s.publishWriter(m, rank, f, frag.Path, 0, 0)
	if err != nil {
		return nil, err
	}
	s.removeFragments(old)
	return w, nil
}

// AppendRank opens rank's blob for appending: a new fragment is started
// (the previous tail fragment is sealed by construction — its writer
// closed before a resume happens). resume reports existing committed
// content, in which case the caller must encode with
// core.EncoderOptions.Resume. Reaching DefaultCompactAt fragments
// triggers a size-tiered compaction pass first.
func (s *ShardStore) AppendRank(rank int) (store.BlobWriter, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.Manifest()
	if err != nil {
		return nil, false, err
	}
	if err := s.checkShardMap(&m, rank); err != nil {
		return nil, false, err
	}
	if len(m.Shards.Ranks[rank]) >= DefaultCompactAt {
		if _, err := s.compactRankLocked(&m, rank); err != nil {
			return nil, false, err
		}
	}
	base, err := s.blobSize(&m, rank)
	if err != nil {
		return nil, false, err
	}
	resume := base > 0
	f, frag, err := s.newFragment(&m, rank)
	if err != nil {
		return nil, false, err
	}
	m.Shards.Ranks[rank] = append(m.Shards.Ranks[rank], frag)
	w, err := s.publishWriter(m, rank, f, frag.Path, base, m.LastCut(rank).Events)
	return w, resume, err
}

// publishWriter opens rank's index journal, publishes m (which registers
// the new tail fragment f at run-relative path rel; the publish's
// directory fsync also makes the journal's entry durable) and returns the
// writer appending to both. On error f is closed. Caller holds s.mu.
func (s *ShardStore) publishWriter(m store.Manifest, rank int, f *os.File, rel string, baseOffset int64, baseEvents uint64) (*blobWriter, error) {
	j, err := store.OpenJournal(s.dir, rank, len(m.RankIndex(rank)))
	if err == nil {
		if err = store.WriteManifestFile(s.dir, m); err != nil {
			j.Close() //cdc:allow(errsink) best-effort cleanup; the manifest error is already propagating
		}
	}
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the manifest error is already propagating
		return nil, err
	}
	return &blobWriter{f: f, j: j, unsynced: s.fragmentDirs(rel), baseOffset: baseOffset, baseEvents: baseEvents}, nil
}

// OpenRank opens rank's blob for reading, pinned to the last committed
// index offset when the run is incomplete.
func (s *ShardStore) OpenRank(rank int) (store.BlobReader, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	if err := s.checkShardMap(&m, rank); err != nil {
		return nil, err
	}
	blob, err := s.openFragments(m.Shards.Ranks[rank])
	if err != nil {
		return nil, err
	}
	if !m.Complete {
		return blob.pin(m.LastCut(rank).Offset), nil
	}
	return blob, nil
}

// RawRank opens rank's full blob (every registered fragment, torn tail
// included). A rank with no fragments yields fs.ErrNotExist.
func (s *ShardStore) RawRank(rank int) (store.BlobReader, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	if err := s.checkShardMap(&m, rank); err != nil {
		return nil, err
	}
	if len(m.Shards.Ranks[rank]) == 0 {
		return nil, fmt.Errorf("shardstore: rank %d has no fragments: %w", rank, fs.ErrNotExist)
	}
	return s.openFragments(m.Shards.Ranks[rank])
}

// checkShardMap validates the manifest knows this layout and rank.
func (s *ShardStore) checkShardMap(m *store.Manifest, rank int) error {
	if m.Shards == nil || m.Shards.Fanout <= 0 {
		return fmt.Errorf("shardstore: %s: manifest has no shard map (layout %q)", s.dir, m.Layout)
	}
	if rank < 0 || rank >= m.Ranks {
		return fmt.Errorf("shardstore: rank %d out of range [0,%d)", rank, m.Ranks)
	}
	for len(m.Shards.Ranks) < m.Ranks {
		m.Shards.Ranks = append(m.Shards.Ranks, nil)
	}
	return nil
}

// fragName builds a fragment's run-relative path (slash-separated in the
// manifest; FromSlash at the filesystem boundary).
func fragName(fanout, rank, gen int) string {
	return path.Join("shards", fmt.Sprintf("s%02d", rank%fanout), fmt.Sprintf("r%04d.f%04d.cdc", rank, gen))
}

// nextGen returns one past the largest fragment generation in frags.
func nextGen(frags []store.Fragment) int {
	gen := 0
	for _, fr := range frags {
		var r, g int
		if _, err := fmt.Sscanf(path.Base(fr.Path), "r%04d.f%04d.cdc", &r, &g); err == nil && g > gen {
			gen = g
		}
	}
	return gen + 1
}

// newFragment creates the next fragment file for rank (truncating any
// leftover from a crashed earlier attempt) and returns its handle and
// manifest entry. Caller holds s.mu and publishes the manifest.
func (s *ShardStore) newFragment(m *store.Manifest, rank int) (*os.File, store.Fragment, error) {
	rel := fragName(m.Shards.Fanout, rank, nextGen(m.Shards.Ranks[rank]))
	abs := filepath.Join(s.dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return nil, store.Fragment{}, err
	}
	f, err := os.Create(abs)
	if err != nil {
		return nil, store.Fragment{}, err
	}
	return f, store.Fragment{Path: rel}, nil
}

// syncDir fsyncs one directory. Tests replace it to observe which
// directories are synced, and in what order.
var syncDir = store.SyncDir

// fragmentDirs lists the directories whose entries make the fragment at
// run-relative path rel reachable, innermost first: its shard directory
// (holding the fragment), shards/ (holding the shard directory) and the
// run directory (holding shards/). Syncing them in this order makes each
// entry durable before the entry that leads to it.
func (s *ShardStore) fragmentDirs(rel string) []string {
	shard := filepath.Join(s.dir, filepath.FromSlash(path.Dir(rel)))
	return []string{shard, filepath.Dir(shard), s.dir}
}

// syncFragmentDirs fsyncs fragmentDirs(rel) in order.
func (s *ShardStore) syncFragmentDirs(rel string) error {
	for _, d := range s.fragmentDirs(rel) {
		if err := syncDir(d); err != nil {
			return err
		}
	}
	return nil
}

// blobSize sums the on-disk sizes of rank's fragments — the append base
// for a resume. Fragment files are the ground truth; the manifest's Size
// fields lag until the next Finalize or compaction.
func (s *ShardStore) blobSize(m *store.Manifest, rank int) (int64, error) {
	var n int64
	for _, fr := range m.Shards.Ranks[rank] {
		fi, err := os.Stat(filepath.Join(s.dir, filepath.FromSlash(fr.Path)))
		if err != nil {
			return 0, fmt.Errorf("shardstore: fragment %s: %w", fr.Path, err)
		}
		n += fi.Size()
	}
	return n, nil
}

// removeFragments deletes fragment files best-effort: the manifest no
// longer references them, so a failure only leaks disk, never corrupts.
func (s *ShardStore) removeFragments(frags []store.Fragment) {
	for _, fr := range frags {
		os.Remove(filepath.Join(s.dir, filepath.FromSlash(fr.Path))) //cdc:allow(errsink) unreferenced file; best-effort cleanup
	}
}

// refreshSizes sets the Size of each of rank's fragments to its file's
// current length, for a manifest about to be published.
func (s *ShardStore) refreshSizes(m *store.Manifest, rank int) error {
	for i, fr := range m.Shards.Ranks[rank] {
		fi, err := os.Stat(filepath.Join(s.dir, filepath.FromSlash(fr.Path)))
		if err != nil {
			return fmt.Errorf("shardstore: fragment %s: %w", fr.Path, err)
		}
		m.Shards.Ranks[rank][i].Size = fi.Size()
	}
	return nil
}

// blobWriter is one rank's append stream into its current tail fragment;
// Commit appends the blob-absolute cut to the rank's index journal.
type blobWriter struct {
	f *os.File
	j *store.Journal
	// unsynced holds the fragment's directories (fragmentDirs) until the
	// first Commit has fsynced them.
	unsynced   []string
	baseOffset int64
	baseEvents uint64
}

func (w *blobWriter) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w *blobWriter) Sync() error                 { return w.f.Sync() }

func (w *blobWriter) Close() error {
	return errors.Join(w.f.Close(), w.j.Close())
}

// Commit appends the cut to the journal. The first commit first fsyncs the
// fragment's directories, so no journal record names bytes in a fragment
// whose directory entry a crash could still lose.
func (w *blobWriter) Commit(cut store.Cut) error {
	for len(w.unsynced) > 0 {
		if err := syncDir(w.unsynced[0]); err != nil {
			return err
		}
		w.unsynced = w.unsynced[1:]
	}
	return w.j.Append(store.IndexEntry{
		Clock:  cut.Clock,
		Events: w.baseEvents + cut.Events,
		Offset: w.baseOffset + cut.Offset,
	})
}

var _ store.Store = (*ShardStore)(nil)
