package main

import (
	"sync"
	"sync/atomic"

	"cdcreplay/internal/store"
)

// storeProbe is the benchmark's view of one workload's storage: the
// wrappers below report every call into it. Commits are always counted;
// calls are timed only while a tracer is set.
type storeProbe struct {
	trace   atomic.Pointer[tracer]
	commits atomic.Int64

	mu     sync.Mutex
	parent map[int]uint64 // span that caused rank's store calls
}

func newStoreProbe(t *tracer) *storeProbe {
	p := &storeProbe{parent: make(map[int]uint64)}
	p.trace.Store(t)
	return p
}

// tr is the tracer store calls report to now (nil: tracing off).
func (p *storeProbe) tr() *tracer { return p.trace.Load() }

// setParent makes sp the parent of rank's later store spans.
func (p *storeProbe) setParent(rank int, sp uint64) {
	p.mu.Lock()
	p.parent[rank] = sp
	p.mu.Unlock()
}

func (p *storeProbe) parentOf(rank int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parent[rank]
}

// timed runs f and, when tracing, adds its duration to name.ns and one
// call to name.calls.
func (p *storeProbe) timed(name string, f func() error) error {
	t := p.tr()
	if t == nil {
		return f()
	}
	t0 := now()
	err := f()
	t.add(name+".ns", float64(now()-t0))
	t.add(name+".calls", 1)
	return err
}

// probedStore wraps a store.Store so the benchmark sees every call into
// the storage layer. Embedding keeps the read-only calls untouched.
type probedStore struct {
	store.Store
	p *storeProbe
}

func (s probedStore) Create(m store.Manifest) error {
	return s.p.timed("store.create", func() error { return s.Store.Create(m) })
}

func (s probedStore) Finalize() error {
	return s.p.timed("store.finalize", s.Store.Finalize)
}

func (s probedStore) CreateRank(rank int) (store.BlobWriter, error) {
	var w store.BlobWriter
	err := s.p.timed("store.open_writer", func() (err error) {
		w, err = s.Store.CreateRank(rank)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &probedWriter{BlobWriter: w, p: s.p, rank: rank}, nil
}

func (s probedStore) AppendRank(rank int) (store.BlobWriter, bool, error) {
	var w store.BlobWriter
	var resume bool
	err := s.p.timed("store.open_writer", func() (err error) {
		w, resume, err = s.Store.AppendRank(rank)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return &probedWriter{BlobWriter: w, p: s.p, rank: rank}, resume, nil
}

func (s probedStore) OpenRank(rank int) (store.BlobReader, error) {
	var r store.BlobReader
	err := s.p.timed("store.open_reader", func() (err error) {
		r, err = s.Store.OpenRank(rank)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &probedReader{BlobReader: r, p: s.p}, nil
}

// probedWriter times one rank's blob writes and commits.
type probedWriter struct {
	store.BlobWriter
	p    *storeProbe
	rank int
}

func (w *probedWriter) Write(b []byte) (int, error) {
	t := w.p.tr()
	if t == nil {
		return w.BlobWriter.Write(b)
	}
	t0 := now()
	n, err := w.BlobWriter.Write(b)
	t.add("store.write.ns", float64(now()-t0))
	t.add("store.write.bytes", float64(n))
	t.add("store.write.calls", 1)
	return n, err
}

func (w *probedWriter) Commit(cut store.Cut) error {
	t := w.p.tr()
	sp := t.start("store.commit", w.p.parentOf(w.rank))
	t0 := now()
	err := w.BlobWriter.Commit(cut)
	t1 := now()
	sp.end()
	if err != nil {
		return err
	}
	w.p.commits.Add(1)
	if t != nil {
		t.add("store.commit.ns", float64(t1-t0))
		t.add("store.commit.calls", 1)
		t.sample("store.commit.us", float64(t1-t0)/1e3)
	}
	return nil
}

func (w *probedWriter) Sync() error {
	return w.p.timed("store.sync", w.BlobWriter.Sync)
}

func (w *probedWriter) Close() error {
	return w.p.timed("store.close", w.BlobWriter.Close)
}

// probedReader times one blob's reads.
type probedReader struct {
	store.BlobReader
	p *storeProbe
}

func (r *probedReader) Read(b []byte) (int, error) {
	t := r.p.tr()
	if t == nil {
		return r.BlobReader.Read(b)
	}
	t0 := now()
	n, err := r.BlobReader.Read(b)
	t.add("store.read.ns", float64(now()-t0))
	t.add("store.read.bytes", float64(n))
	return n, err
}

func (r *probedReader) ReadAt(b []byte, off int64) (int, error) {
	t := r.p.tr()
	if t == nil {
		return r.BlobReader.ReadAt(b, off)
	}
	t0 := now()
	n, err := r.BlobReader.ReadAt(b, off)
	t.add("store.read.ns", float64(now()-t0))
	t.add("store.read.bytes", float64(n))
	return n, err
}

// probedRoot wraps the ingest daemon's store.Root so every run it opens is
// a probedStore.
type probedRoot struct {
	store.Root
	p *storeProbe
}

func (r probedRoot) Open(name string) (store.Store, error) {
	st, err := r.Root.Open(name)
	if err != nil {
		return nil, err
	}
	return probedStore{Store: st, p: r.p}, nil
}
