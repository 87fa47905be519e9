// Chunk-encoding stages and the parallel encode pool (DESIGN.md §9).
//
// Every chunk passes through the same three steps, whatever the worker
// count:
//
//	prepare (Encoder.flush)   build (Encoder.build)        commit (Encoder.commit)
//	───────────────────────   ─────────────────────        ───────────────────────
//	exception scan            Builder.Build                fw.WriteFrame
//	frontier update           Builder.AppendMarshal        (submission order)
//	events → job              encode.* metrics
//
// Prepare is order-sensitive (an exception tests against the frontier left
// by the same callsite's previous chunk) and always runs on the CDC
// goroutine. With EncodeWorkers ≤ 1 build and commit run inline right after
// it, on a Builder the Encoder owns: a sync.Pool may drop its items at any
// GC, so only an owned Builder keeps the inline steady state
// allocation-free. With EncodeWorkers > 1 build fans out across a bounded
// worker pool, each worker taking a pooled Builder, and a single committer
// goroutine writes the results in submission order.
//
// Because gzip runs over the committed byte stream and the committer
// preserves submission order, the record file is byte-for-byte identical at
// every width (pinned by TestEncoderBytesPinned).
//
// The CDC goroutine submits every pooled job to the commit queue first and
// the worker queue second, so the committer's channel order IS submission
// order; it simply waits for each chunk job's ready latch before writing.
// Workers never block on the committer, so the commit queue always drains
// and the pool cannot deadlock. Write errors latch into the Encoder (first
// error wins); later commits become no-ops and every entry point surfaces
// the latched error.
package core

import (
	"compress/gzip"
	"io"
	"sync"
	"time"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/tables"
)

// gzipPools pools *gzip.Writer per compression level: a deflate writer
// carries ~1.4 MiB of window and hash state that Reset reuses in full, so
// encoders (and benchmarks churning through per-run FrameWriters) skip the
// dominant FrameWriter setup allocation.
var gzipPools sync.Map // int → *sync.Pool

func getGzipWriter(w io.Writer, level int) (*gzip.Writer, error) {
	if p, ok := gzipPools.Load(level); ok {
		if zw, ok := p.(*sync.Pool).Get().(*gzip.Writer); ok {
			zw.Reset(w)
			return zw, nil
		}
	}
	return gzip.NewWriterLevel(w, level)
}

func putGzipWriter(level int, zw *gzip.Writer) {
	p, ok := gzipPools.Load(level)
	if !ok {
		p, _ = gzipPools.LoadOrStore(level, &sync.Pool{})
	}
	p.(*sync.Pool).Put(zw)
}

// Job kinds. jobChunk is the only kind the build step touches; the rest are
// commit-side control operations that ride the commit queue to stay
// ordered relative to chunk frames.
const (
	jobChunk      = iota // encode events into a chunk frame
	jobCallsite          // pre-marshaled callsite-name frame
	jobFlushPoint        // FrameWriter.FlushPoint(clock, coll)
	jobFlushOnly         // FrameWriter.Flush (FlushAll round that skipped a stream)
	jobClose             // FrameWriter.Close(clock, coll)
)

// encodeJob is one unit of encode work. Jobs own their events, exceptions,
// and payload backing arrays and are recycled, so steady-state flushing
// allocates nothing. In the pool, ownership passes CDC goroutine → worker →
// committer through channel sends, so no lock guards the fields; the worker
// signals ready (capacity 1) once payload is final, and done (when non-nil)
// receives the commit result.
type encodeJob struct {
	kind       int
	callsite   uint64
	clock      uint64
	coll       uint64
	events     []tables.Event
	exceptions []tables.MatchedEntry
	payload    []byte
	ready      chan struct{}
	done       chan error
}

// build turns a prepared chunk job into its frame payload with b. It runs
// inline on the CDC goroutine or on a pool worker, and touches no Encoder
// state other than atomic counters and the concurrency-safe obs
// instruments.
func (e *Encoder) build(b *cdcformat.Builder, j *encodeJob) {
	var start time.Time
	if e.mStageNs != nil {
		start = time.Now() //cdc:allow(nodetermflow) telemetry only: feeds the encode.stage.ns histogram, never the record bytes
	}
	chunk := b.Build(j.callsite, j.events, !e.opts.OmitSenderColumn)
	chunk.Exceptions = j.exceptions
	if e.mLPE != nil {
		span := e.obsReg.StartSpan("encode.chunk")
		re, pe, lp := cdcformat.StageSizes(j.events, chunk)
		e.mChunks.Inc()
		e.mRaw.Add(uint64(len(j.events)) * tables.BitsPerRow / 8)
		e.mRE.Add(uint64(re))
		e.mPE.Add(uint64(pe))
		e.mLPE.Add(uint64(lp))
		span.End()
	}
	e.permuted.Add(uint64(len(chunk.Moves)))
	e.valuesCDC.Add(uint64(chunk.ValueCount()))
	j.payload = b.AppendMarshal(j.payload[:0], chunk)
	if e.mStageNs != nil {
		e.mStageNs.Observe(uint64(time.Since(start))) //cdc:allow(nodetermflow) telemetry only: stage latency, never the record bytes
	}
}

// commit executes one job against the FrameWriter. Jobs commit in
// submission order: inline that is call order, in the pool the committer
// goroutine guarantees it. Once a write has failed, every later commit
// returns that first error without writing.
func (e *Encoder) commit(j *encodeJob) error {
	if latched := e.err.Load(); latched != nil {
		return *latched
	}
	var err error
	switch j.kind {
	case jobChunk:
		err = e.fw.WriteFrame(frameChunk, j.payload)
	case jobCallsite:
		err = e.fw.WriteFrame(frameCallsite, j.payload)
	case jobFlushPoint:
		err = e.fw.FlushPoint(j.clock, j.coll)
		e.reportGzipBytes()
	case jobFlushOnly:
		err = e.fw.Flush()
		e.reportGzipBytes()
	case jobClose:
		err = e.fw.Close(j.clock, j.coll)
		e.reportGzipBytes()
	}
	if err != nil {
		e.err.CompareAndSwap(nil, &err)
	}
	return err
}

// firstErr reports the latched write error, if any.
func (e *Encoder) firstErr() error {
	if pe := e.err.Load(); pe != nil {
		return *pe
	}
	return nil
}

// getJob returns an empty job of the given kind: the Encoder's own job when
// running inline, a pooled one otherwise.
func (e *Encoder) getJob(kind int) *encodeJob {
	j := &e.inline
	if e.pipe != nil {
		j = e.pipe.jobPool.Get().(*encodeJob)
	}
	j.kind = kind
	return j
}

// submit hands a job on. Inline it is built (if a chunk) and committed
// before submit returns, and the result is the commit's. In the pool it is
// queued without waiting, and the result is any error latched so far.
func (e *Encoder) submit(j *encodeJob) error {
	if e.pipe != nil {
		e.pipe.submit(j)
		return e.firstErr()
	}
	if j.kind == jobChunk {
		e.build(&e.builder, j)
	}
	err := e.commit(j)
	j.reset()
	return err
}

// run submits a control job and returns once it — and therefore everything
// submitted before it — has committed.
func (e *Encoder) run(j *encodeJob) error {
	if e.pipe != nil {
		return e.pipe.run(j)
	}
	return e.submit(j)
}

// reset empties a job for reuse, keeping its backing arrays.
func (j *encodeJob) reset() {
	j.done = nil
	j.events = j.events[:0]
	j.exceptions = j.exceptions[:0]
	j.payload = j.payload[:0]
}

// encodePipeline is the worker pool plus ordered committer attached to an
// Encoder when EncoderOptions.EncodeWorkers > 1.
type encodePipeline struct {
	e      *Encoder
	jobs   chan *encodeJob // worker stage input, FIFO
	commit chan *encodeJob // committer input, submission order
	wg     sync.WaitGroup  // workers
	closed chan struct{}   // committer exited

	// waitCh is reused for blocking operations; the Encoder is driven by a
	// single goroutine, so at most one waiter exists at a time.
	waitCh chan error

	jobPool  sync.Pool // *encodeJob
	builders sync.Pool // *cdcformat.Builder

	// Instruments (nil-safe): worker occupancy with high-water mark and
	// builder-pool effectiveness.
	mBusy     *obs.Gauge
	mPoolHit  *obs.Counter
	mPoolMiss *obs.Counter
}

func newEncodePipeline(e *Encoder, workers int) *encodePipeline {
	p := &encodePipeline{
		e:      e,
		jobs:   make(chan *encodeJob, workers),
		commit: make(chan *encodeJob, 2*workers+4),
		closed: make(chan struct{}),
		waitCh: make(chan error, 1),
	}
	p.jobPool.New = func() any { return &encodeJob{ready: make(chan struct{}, 1)} }
	p.builders.New = func() any {
		p.mPoolMiss.Inc()
		return new(cdcformat.Builder)
	}
	if reg := e.obsReg; reg != nil {
		p.mBusy = reg.Gauge("encode.workers.busy")
		p.mPoolHit = reg.Counter("encode.pool.hit")
		p.mPoolMiss = reg.Counter("encode.pool.miss")
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	go p.committer()
	return p
}

// submit queues a job. The commit send precedes the worker send so the
// committer's queue order is exactly submission order. Whether the job
// needs a worker is read before the commit send: a control job may be
// committed and recycled the moment it is enqueued, so j must not be read
// afterwards.
func (p *encodePipeline) submit(j *encodeJob) {
	needsWorker := j.kind == jobChunk
	p.commit <- j
	if needsWorker {
		p.jobs <- j
	}
}

// run submits a control job and blocks until the committer has executed it
// — and therefore everything submitted before it.
func (p *encodePipeline) run(j *encodeJob) error {
	j.done = p.waitCh
	p.submit(j)
	return <-p.waitCh
}

// worker runs the build step on chunk jobs. It owns a pooled Builder for
// the duration of each job and never blocks on the committer.
func (p *encodePipeline) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.mBusy.Add(1)
		b := p.builders.Get().(*cdcformat.Builder)
		p.mPoolHit.Inc()
		p.e.build(b, j)
		p.builders.Put(b)
		p.mBusy.Add(-1)
		j.ready <- struct{}{}
	}
}

// committer is the single goroutine allowed to touch the FrameWriter after
// the pool starts. It drains the commit queue in submission order, waiting
// for each chunk job's worker to finish before committing it.
func (p *encodePipeline) committer() {
	defer close(p.closed)
	for j := range p.commit {
		if j.kind == jobChunk {
			<-j.ready
		}
		err := p.e.commit(j)
		done := j.done
		j.reset()
		p.jobPool.Put(j)
		if done != nil {
			done <- err
		}
	}
}

// shutdown tears the pool down after the close job has committed.
func (p *encodePipeline) shutdown() {
	close(p.jobs)
	p.wg.Wait()
	close(p.commit)
	<-p.closed
}
