// Package store defines the persistence API between the CDC pipeline and
// the bytes on (or off) disk: a Store holds one recorded run — a manifest,
// one append-only record blob per rank, and a per-epoch chunk index — and
// a Root holds many runs for the ingest daemon. Everything above this
// package (core, the cdc facade, replay, ingestd, the CLIs) speaks Store;
// everything below it (dirstore, shardstore) owns a concrete
// layout. No package outside internal/store constructs run-layout paths.
//
// # Commit discipline
//
// A run's commit record is its manifest plus one index journal per rank
// (journal.go). Create writes the manifest with Complete unset; every
// BlobWriter.Commit appends one IndexEntry — epoch number, writer clock,
// cumulative matched events, blob offset — as a fixed-size, CRC-sealed
// journal record and fsyncs it, without reading or rewriting the manifest
// and without a lock shared across ranks; Finalize publishes the folded
// index with Complete set after every rank closed cleanly, then removes
// the journals. Store.Manifest returns the folded view, so a reader never
// has to trust blob bytes beyond what that view names: the last index
// entry per rank IS the committed epoch line.
//
// The manifest format is unchanged by the journal (v2, chunk_index), and
// old incomplete runs without journals read as before. An older binary
// reads a new incomplete run as having nothing committed, since its cuts
// are still in the journals; salvage is unaffected, because PlanSalvage
// scans the blobs, not the index.
//
// # Concurrent readers (epoch pinning)
//
// Opening a run for replay while recording continues is part of the
// contract: OpenRank on an incomplete run returns the blob pinned to the
// rank's last committed index offset, so a reader decodes exactly the
// epochs that were committed when it looked, never a torn tail. Writers
// only ever append past committed offsets and journal records, and
// manifests are replaced atomically, so a pinned read is stable even while
// the writer keeps going. TolerableAtPin tells the pin boundary from real damage when such
// a pinned blob is decoded.
package store

import "io"

// Layout names for Manifest.Layout and the cdc facade's WithStoreLayout.
const (
	// LayoutDir is the flat directory-per-run layout (dirstore): one
	// rankNNNN.cdc file per rank beside manifest.json.
	LayoutDir = "dir"
	// LayoutSharded spreads rank blobs as fragment files across fan-out
	// shard subdirectories with size-tiered compaction (shardstore).
	LayoutSharded = "sharded"
)

// Cut is one committed epoch boundary as the writing encoder saw it. The
// fields are writer-relative: Offset counts compressed bytes emitted by
// this writer (core.Encoder.BytesWritten at the flush point) and Events
// counts matched receives it observed; a backend resuming an existing blob
// adds its own base (prior blob size, prior cumulative events) before
// recording the IndexEntry.
type Cut struct {
	// Clock is the writing rank's Lamport-clock lower bound at the cut
	// (what the flush-point frame carries).
	Clock uint64
	// Events is the writer's cumulative matched receive events at the cut.
	Events uint64
	// Offset is the writer's compressed bytes emitted through the cut.
	Offset int64
}

// BlobWriter is one rank's append-only record stream. Write goes straight
// to the backend; Commit publishes everything written so far as a durable,
// reader-visible epoch (see Cut for the writer-relative convention); Sync
// forces written bytes to stable storage (core's durable mode asserts for
// it). Close without a trailing Commit leaves the tail uncommitted —
// readers pin to the last committed cut and salvage discards the rest.
type BlobWriter interface {
	io.Writer
	// Sync forces buffered bytes to stable storage.
	Sync() error
	// Commit durably records cut as the rank's next chunk-index entry: on
	// disk, one record appended to the rank's index journal and fsynced,
	// with the blob bytes it names written before it. Its cost does not
	// grow with the index, and it neither reads nor rewrites the manifest.
	// Cuts must be monotone in all three fields.
	Commit(cut Cut) error
	// Close releases the writer. It does not commit.
	Close() error
}

// BlobReader is one rank's record blob (or committed prefix of it) for
// reading. Seekability is byte-level: whether a Seek target decodes
// depends on the blob's cut mode (Store.Seekable — index offsets land on
// gzip member boundaries only for seekable backends).
type BlobReader interface {
	io.Reader
	io.ReaderAt
	io.Seeker
	io.Closer
	// Size is the readable byte length (the pinned length on an
	// incomplete run).
	Size() int64
}

// EmptyBlob returns a zero-length BlobReader: what OpenRank hands out on
// an incomplete run whose rank has not created (or committed) anything
// yet, so replay-while-recording readers never race blob creation.
func EmptyBlob() BlobReader { return emptyBlob{} }

type emptyBlob struct{}

func (emptyBlob) Read([]byte) (int, error)          { return 0, io.EOF }
func (emptyBlob) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (emptyBlob) Seek(int64, int) (int64, error)    { return 0, nil }
func (emptyBlob) Close() error                      { return nil }
func (emptyBlob) Size() int64                       { return 0 }

// Store is one recorded run. Implementations are safe for concurrent use
// by one writer per rank plus any number of readers in the same process;
// cross-process writing is not part of the contract.
type Store interface {
	// Layout names the backend's layout (LayoutDir or LayoutSharded).
	Layout() string
	// Seekable reports whether committed index offsets are random-access
	// decode points (the writer closed a gzip member at every cut). When
	// false the index still bounds pinned reads, but decoding must start
	// at offset zero.
	Seekable() bool
	// Manifest returns the current manifest. The error wraps
	// ErrBadManifest when the bytes exist but are not a valid manifest.
	Manifest() (Manifest, error)
	// Create initializes the run from m (Version and Complete are
	// overridden, no rank is finished; stale rank blobs from a previous
	// run are removed) and
	// publishes the manifest with Complete unset.
	Create(m Manifest) error
	// WriteManifest republishes m atomically, replacing the current
	// manifest.
	WriteManifest(m Manifest) error
	// Finalize marks the run complete, after every rank closed cleanly.
	Finalize() error
	// Reopen clears the Complete marker so ranks can be appended to again
	// (core.EncoderOptions.Resume), returning the manifest as it was
	// before clearing. A Complete manifest is the whole commit record, so
	// cuts committed on a run that was not reopened are not read.
	Reopen() (Manifest, error)
	// MarkFinished records in the manifest that rank's record is whole:
	// its writer closed it after the client's last event
	// (Manifest.Finished). It survives Reopen and Finalize; salvage keeps
	// it only for ranks it keeps whole.
	MarkFinished(rank int) error
	// CreateRank opens rank's blob for writing from scratch (any previous
	// content is discarded).
	CreateRank(rank int) (BlobWriter, error)
	// AppendRank opens rank's blob for appending, creating it if absent.
	// resume reports existing content: the caller must then encode with
	// core.EncoderOptions.Resume (the record magic is already present).
	AppendRank(rank int) (w BlobWriter, resume bool, err error)
	// OpenRank opens rank's blob for reading. On an incomplete run the
	// reader is pinned to the rank's last committed index offset (an empty
	// blob when nothing was committed); on a complete run it is the full
	// blob.
	OpenRank(rank int) (BlobReader, error)
	// RawRank opens rank's full blob without pinning — the salvage and
	// frontier-scan view, torn tail included. A rank that never wrote
	// yields fs.ErrNotExist.
	RawRank(rank int) (BlobReader, error)
	// Salvage recovers the run in place to a cross-rank-consistent prefix
	// (see PlanSalvage) and marks it Complete+Salvaged. Complete runs are
	// left untouched and report a nil *SalvageReport.
	Salvage() (*SalvageReport, error)
}

// Root is a multi-run store (e.g. the ingest daemon's record root, holding
// tenant/run children).
type Root interface {
	// Open returns the run store at name (a slash-separated path like
	// "tenant/run"), creating nothing: the store materializes on Create.
	Open(name string) (Store, error)
	// SalvageAll recovers every incomplete run under the root in place,
	// sorted by run name. Unreadable-garbage manifests are skipped with a
	// logged finding, not an error — one damaged tenant must not block
	// every other tenant's recovery.
	SalvageAll() ([]RunSalvage, error)
}
