package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// ManifestName is the metadata file's name inside an on-disk run.
const ManifestName = "manifest.json"

// ManifestVersion guards against format drift. v2 added the Complete and
// Salvaged markers (and rides the record-format v2 bump); the layout,
// chunk-index, and shard-map fields are additive within v2 — old readers
// ignore them, old manifests read as layout "dir" with no index.
const ManifestVersion = 2

// ErrIncomplete marks a run whose recording never finished cleanly — the
// manifest exists but Complete was never set. Salvage can usually recover
// a consistent prefix.
var ErrIncomplete = errors.New("store: record incomplete (crashed run?)")

// ErrBadManifest marks manifest bytes that exist but do not parse as a
// supported manifest — garbage JSON or a wrong version. SalvageAll skips
// such runs with a finding instead of aborting the sweep; match with
// errors.Is.
var ErrBadManifest = errors.New("store: unreadable manifest")

// Manifest describes a recorded run.
type Manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// Ranks is the world size of the recorded run.
	Ranks int `json:"ranks"`
	// App names the recorded application (free form; checked on replay).
	App string `json:"app"`
	// Params carries application parameters for the replayer's operator
	// to cross-check (free form).
	Params map[string]string `json:"params,omitempty"`
	// Complete is set by Finalize once every rank's record closed
	// cleanly. Open refuses runs without it.
	Complete bool `json:"complete"`
	// Salvaged marks a run produced by Salvage: a consistent prefix of a
	// crashed run, replayable up to the crash frontier.
	Salvaged bool `json:"salvaged,omitempty"`
	// Layout names the storage backend that wrote the run (LayoutDir when
	// empty: manifests predate the field).
	Layout string `json:"layout,omitempty"`
	// SeekableCuts reports the writers closed a gzip member at every
	// flush point, making Index offsets random-access decode points.
	SeekableCuts bool `json:"seekable_cuts,omitempty"`
	// Index is the per-epoch chunk index, outer slice indexed by rank:
	// each entry names one committed flush-point cut. The last entry per
	// rank is the rank's committed frontier; readers of an incomplete run
	// pin to it.
	Index [][]IndexEntry `json:"chunk_index,omitempty"`
	// Shards is the sharded layout's fragment map (nil for other
	// layouts).
	Shards *ShardMap `json:"shards,omitempty"`
	// Finished lists, in ascending order, the ranks whose writer declared
	// its record whole: its client finished and the record closed after
	// its last event (Store.MarkFinished). A cleanly closed blob alone
	// does not say this, since a drained writer and a salvage close blobs
	// too. Salvage keeps a rank here only if it keeps its record whole.
	Finished []int `json:"finished,omitempty"`
}

// IndexEntry is one committed epoch in a rank's chunk index.
type IndexEntry struct {
	// Epoch is the 1-based ordinal of the cut within the blob.
	Epoch int `json:"epoch"`
	// Clock is the writer's Lamport-clock bound at the cut (the
	// flush-point frame's value).
	Clock uint64 `json:"clock"`
	// Events is the cumulative matched receive events through the cut.
	Events uint64 `json:"events"`
	// Offset is the absolute compressed-blob offset of the cut: decoding
	// the blob's first Offset bytes yields exactly the epochs up to and
	// including this one.
	Offset int64 `json:"offset"`
}

// ShardMap records how a sharded run spreads rank blobs across fan-out
// subdirectories. A rank's blob is the in-order byte concatenation of its
// fragment files (only the first fragment carries the record magic).
type ShardMap struct {
	// Fanout is the shard-directory count; rank r lives in shard
	// r % Fanout.
	Fanout int `json:"fanout"`
	// Ranks lists each rank's fragments in blob order, indexed by rank.
	Ranks [][]Fragment `json:"ranks"`
}

// Fragment is one piece of a sharded rank blob.
type Fragment struct {
	// Path is the fragment file, relative to the run root.
	Path string `json:"path"`
	// Size is the fragment's byte length as of the last manifest publish
	// (the live tail fragment may have grown since; committed index
	// offsets, not Size, bound readers).
	Size int64 `json:"size"`
}

// RankIndex returns rank's committed index entries (nil when none).
func (m *Manifest) RankIndex(rank int) []IndexEntry {
	if rank < 0 || rank >= len(m.Index) {
		return nil
	}
	return m.Index[rank]
}

// LastCut returns rank's last committed index entry, or a zero entry when
// nothing was committed.
func (m *Manifest) LastCut(rank int) IndexEntry {
	idx := m.RankIndex(rank)
	if len(idx) == 0 {
		return IndexEntry{}
	}
	return idx[len(idx)-1]
}

// AppendIndex appends one committed entry to rank's index, growing the
// outer slice as needed and numbering the epoch.
func (m *Manifest) AppendIndex(rank int, e IndexEntry) {
	for len(m.Index) <= rank {
		m.Index = append(m.Index, nil)
	}
	e.Epoch = len(m.Index[rank]) + 1
	m.Index[rank] = append(m.Index[rank], e)
}

// Clone deep-copies the manifest so a backend can hand out snapshots that
// later commits cannot mutate.
func (m Manifest) Clone() Manifest {
	out := m
	out.Finished = slices.Clone(m.Finished)
	if m.Params != nil {
		out.Params = make(map[string]string, len(m.Params))
		for k, v := range m.Params {
			out.Params[k] = v
		}
	}
	if m.Index != nil {
		out.Index = make([][]IndexEntry, len(m.Index))
		for r, idx := range m.Index {
			out.Index[r] = append([]IndexEntry(nil), idx...)
		}
	}
	if m.Shards != nil {
		sm := ShardMap{Fanout: m.Shards.Fanout}
		sm.Ranks = make([][]Fragment, len(m.Shards.Ranks))
		for r, frags := range m.Shards.Ranks {
			sm.Ranks[r] = append([]Fragment(nil), frags...)
		}
		out.Shards = &sm
	}
	return out
}

// DecodeManifest parses and version-checks manifest bytes. Parse and
// version failures wrap ErrBadManifest — the "unreadable garbage" class
// SalvageAll skips rather than aborts on.
func DecodeManifest(buf []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return m, fmt.Errorf("%w: corrupt JSON: %v", ErrBadManifest, err)
	}
	if m.Version != ManifestVersion {
		return m, fmt.Errorf("%w: manifest version %d, want %d", ErrBadManifest, m.Version, ManifestVersion)
	}
	return m, nil
}

// EncodeManifest renders the manifest's canonical JSON bytes (indented,
// trailing newline).
func EncodeManifest(m Manifest) ([]byte, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ReadManifestFile reads dir's manifest. A missing or unreadable file
// surfaces the os error (annotated); bytes that do not parse wrap
// ErrBadManifest via DecodeManifest.
func ReadManifestFile(dir string) (Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: %w (is %q a record directory?)", err, dir)
	}
	return DecodeManifest(buf)
}

// WriteManifestFile atomically replaces dir's manifest: the bytes land in
// a temp file first, the rename is atomic on POSIX filesystems, and the
// directory fsync makes the rename itself durable. A crash at any point
// leaves either the old manifest or the new one, never a torn file. A
// Complete manifest is the run's whole commit record, so the index
// journals beside it are removed once it is durable (see LoadManifest).
func WriteManifestFile(dir string, m Manifest) error {
	buf, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close() //cdc:allow(errsink) best-effort cleanup; the write error is already propagating
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //cdc:allow(errsink) best-effort cleanup; the sync error is already propagating
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	if err := SyncDir(dir); err != nil || !m.Complete {
		return err
	}
	return RemoveJournals(dir)
}

// SyncDir fsyncs a directory so a completed rename survives power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() //cdc:allow(errsink) best-effort cleanup; the sync error is already propagating
		return err
	}
	// The close error is propagated too: on some filesystems close is when
	// deferred write errors surface, and durability claims must see them.
	return d.Close()
}
