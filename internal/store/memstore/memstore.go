// Package memstore is the in-memory store.Store backend, for DST and
// tests: the same manifest/commit/pinning contract as the disk backends
// with no filesystem underneath. Writers append to per-rank byte slices;
// readers snapshot the committed prefix, so a reader opened mid-recording
// stays stable while the writer keeps appending (writers never mutate
// bytes below a committed offset).
//
// Cuts are seekable: the encoder closes a gzip member at every flush
// point, so committed index offsets are random-access decode points.
package memstore

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"cdcreplay/internal/store"
)

// MemStore is one in-memory run. Use New; safe for one writer per rank
// plus concurrent readers.
type MemStore struct {
	mu      sync.Mutex
	m       store.Manifest
	created bool
	blobs   map[int]*[]byte
}

// New returns an empty in-memory run store.
func New() *MemStore { return &MemStore{blobs: make(map[int]*[]byte)} }

// Layout reports store.LayoutMemory.
func (s *MemStore) Layout() string { return store.LayoutMemory }

// Seekable reports true: cuts end gzip members.
func (s *MemStore) Seekable() bool { return true }

// Manifest returns a snapshot of the current manifest.
func (s *MemStore) Manifest() (store.Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.created {
		return store.Manifest{}, fmt.Errorf("store: %w (memstore run was never created)", fs.ErrNotExist)
	}
	return s.m.Clone(), nil
}

// Create initializes the run from m, dropping any previous blobs.
func (s *MemStore) Create(m store.Manifest) error {
	if m.Ranks <= 0 {
		return fmt.Errorf("memstore: manifest needs a positive rank count, got %d", m.Ranks)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m.Version = store.ManifestVersion
	m.Complete = false
	m.Index = nil
	m.Shards = nil
	m.Layout = store.LayoutMemory
	m.SeekableCuts = true
	s.m = m.Clone()
	s.created = true
	s.blobs = make(map[int]*[]byte)
	return nil
}

// WriteManifest replaces the manifest with m.
func (s *MemStore) WriteManifest(m store.Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m.Clone()
	s.created = true
	return nil
}

// Finalize marks the run complete.
func (s *MemStore) Finalize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.created {
		return errors.New("memstore: Finalize before Create")
	}
	s.m.Complete = true
	return nil
}

// Reopen clears the Complete marker for appending, returning the manifest
// as it was before.
func (s *MemStore) Reopen() (store.Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.created {
		return store.Manifest{}, errors.New("memstore: Reopen before Create")
	}
	prev := s.m.Clone()
	s.m.Complete = false
	return prev, nil
}

// CreateRank opens rank's blob for writing from scratch.
func (s *MemStore) CreateRank(rank int) (store.BlobWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob := new([]byte)
	s.blobs[rank] = blob
	return &blobWriter{s: s, rank: rank, blob: blob}, nil
}

// AppendRank opens rank's blob for appending, creating it if absent.
func (s *MemStore) AppendRank(rank int) (store.BlobWriter, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[rank]
	if !ok {
		blob = new([]byte)
		s.blobs[rank] = blob
	}
	resume := len(*blob) > 0
	return &blobWriter{
		s:          s,
		rank:       rank,
		blob:       blob,
		baseOffset: int64(len(*blob)),
		baseEvents: s.m.LastCut(rank).Events,
	}, resume, nil
}

// OpenRank returns a stable snapshot of rank's blob, pinned to the last
// committed index offset when the run is incomplete.
func (s *MemStore) OpenRank(rank int) (store.BlobReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[rank]
	if !ok {
		if !s.m.Complete {
			// The writer has not created the blob yet; readers of a live
			// run see the empty committed prefix, not a missing-file error.
			return store.EmptyBlob(), nil
		}
		return nil, fmt.Errorf("memstore: rank %d: %w", rank, fs.ErrNotExist)
	}
	size := int64(len(*blob))
	if !s.m.Complete {
		size = s.m.LastCut(rank).Offset
	}
	return newMemBlob((*blob)[:size]), nil
}

// RawRank returns a stable snapshot of rank's full blob.
func (s *MemStore) RawRank(rank int) (store.BlobReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[rank]
	if !ok {
		return nil, fmt.Errorf("memstore: rank %d: %w", rank, fs.ErrNotExist)
	}
	return newMemBlob(*blob), nil
}

// Salvage recovers the run in place to a consistent prefix: store.SalvageTo
// rebuilds it in a fresh in-memory run, whose manifest and blobs then
// replace this run's under the lock. Complete runs are untouched (nil
// report).
func (s *MemStore) Salvage() (*store.SalvageReport, error) {
	fresh := New()
	report, err := store.SalvageTo(s, fresh)
	if report == nil || err != nil {
		return report, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m, s.blobs = fresh.m, fresh.blobs
	return report, nil
}

// commit appends one absolute index entry under the lock.
func (s *MemStore) commit(rank int, e store.IndexEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.AppendIndex(rank, e)
	return nil
}

// blobWriter appends to one rank's byte slice. Appends happen under the
// store lock so concurrent OpenRank snapshots slice a consistent backing
// array; bytes below a committed offset are never rewritten.
type blobWriter struct {
	s          *MemStore
	rank       int
	blob       *[]byte
	baseOffset int64
	baseEvents uint64
}

func (w *blobWriter) Write(p []byte) (int, error) {
	w.s.mu.Lock()
	*w.blob = append(*w.blob, p...)
	w.s.mu.Unlock()
	return len(p), nil
}

func (w *blobWriter) Sync() error  { return nil }
func (w *blobWriter) Close() error { return nil }

func (w *blobWriter) Commit(cut store.Cut) error {
	return w.s.commit(w.rank, store.IndexEntry{
		Clock:  cut.Clock,
		Events: w.baseEvents + cut.Events,
		Offset: w.baseOffset + cut.Offset,
	})
}

// memBlob is a read view over a snapshot slice.
type memBlob struct{ *bytes.Reader }

func newMemBlob(b []byte) *memBlob { return &memBlob{bytes.NewReader(b)} }

func (b *memBlob) Close() error { return nil }
func (b *memBlob) Size() int64  { return b.Reader.Size() }

var _ store.Store = (*MemStore)(nil)

// Root is an in-memory multi-run store for DST and tests.
type Root struct {
	mu   sync.Mutex
	runs map[string]*MemStore
}

// OpenRoot returns an empty in-memory multi-run store.
func OpenRoot() *Root { return &Root{runs: make(map[string]*MemStore)} }

// Open returns the run store at name, creating an empty one on first use.
func (r *Root) Open(name string) (store.Store, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.runs[name]
	if !ok {
		st = New()
		r.runs[name] = st
	}
	return st, nil
}

// SalvageAll recovers every incomplete created run, sorted by name. Runs
// never created (opened but never written) are skipped silently, matching
// the on-disk sweep's "no manifest, not a run" rule.
func (r *Root) SalvageAll() ([]store.RunSalvage, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.runs))
	for name, st := range r.runs { //cdc:allow(maporder) collected names are sorted below before use
		if st.isCreated() {
			names = append(names, name)
		}
	}
	r.mu.Unlock()
	sort.Strings(names)
	var out []store.RunSalvage
	for _, name := range names {
		r.mu.Lock()
		st := r.runs[name]
		r.mu.Unlock()
		rs := store.RunSalvage{Dir: strings.TrimPrefix(name, "/")}
		report, err := st.Salvage()
		switch {
		case err != nil:
			rs.Err = err
		case report == nil:
			continue // complete, untouched
		default:
			rs.Salvaged = true
			rs.Report = report
		}
		out = append(out, rs)
	}
	return out, nil
}

func (s *MemStore) isCreated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.created
}

var _ store.Root = (*Root)(nil)
