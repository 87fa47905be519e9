// Parallel chunk-decode pipeline (DESIGN.md §14) — the mirror image of
// pipeline.go's encode pool, feeding the replayer instead of the record
// file.
//
// Chunks are independently decodable (DST property P3), so the CPU-bound
// part of reading a record — CRC verification and chunk-table decoding —
// fans across a bounded worker pool while an ordered delivery stage hands
// frames to the consumer in exact stream order. The consumer is typically
// a replayer; the delivery queue doubles as its prefetch window, holding
// decoded frames a bounded distance ahead of the consumption frontier so
// replay becomes I/O-bound. Back-pressure is the queue itself: when the
// replayer stalls, the dispatcher blocks on a full ring (visible through
// the decode.prefetch.depth gauge) and decoding pauses.
//
// Two dispatch shapes share the worker/delivery machinery:
//
//	stream (any io.Reader)            segments (seekable blobs)
//	──────────────────────            ─────────────────────────
//	serial gzip inflate + raw scan    per-epoch byte ranges from the
//	workers verify CRC + parse        store chunk index; workers inflate
//	one frame per job                 and decode whole members in parallel
//
// The stream shape parallelizes only what sits above the (inherently
// serial) gzip inflate; the segment shape — available when the record was
// written with SeekableCuts and the store committed a chunk index — also
// parallelizes the inflate, which dominates decode time, and is what the
// BENCH_decode speedup gate measures.
//
// Error semantics match the serial FrameReader exactly: frames are
// delivered in stream order, the first damaged frame latches the source
// (first error wins, like the encode pipeline's error latch), and the
// *TruncatedRecordError carries the consumer-frontier frame/event/
// flush-point counts — identical to what a serial decode of the same bytes
// reports, whichever worker hit the damage first.
package core

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"

	"cdcreplay/internal/obs"
	"cdcreplay/internal/spsc"
)

// DecoderOptions configure how a RecordIter decodes frames.
type DecoderOptions struct {
	// DecodeWorkers fans CRC verification and chunk-table decoding across
	// a worker pool with ordered delivery. 0 (the default) decodes
	// serially in-line; n ≥ 1 runs n workers.
	DecodeWorkers int
	// Prefetch bounds the ordered delivery window: how many decoded units
	// (frames on the stream path, epoch segments on the seekable path) may
	// sit verified ahead of the consumer's frontier. The spsc ring rounds
	// it up to a power of two. Default 2*DecodeWorkers+4.
	Prefetch int
	// Obs, when non-nil, receives the pipeline's instruments
	// (DESIGN.md §8): decode.workers.busy, decode.prefetch.depth,
	// decode.stage.ns.
	Obs *obs.Registry
}

// fill substitutes defaults for zero fields.
func (o *DecoderOptions) fill() {
	if o.DecodeWorkers < 0 {
		o.DecodeWorkers = 0
	}
	if o.Prefetch <= 0 {
		o.Prefetch = 2*o.DecodeWorkers + 4
	}
}

// gzipReaderPool pools *gzip.Reader across decodes: a reader carries the
// 32 KiB inflate window plus dictionary state that Reset reuses in full —
// the decode-side counterpart of pipeline.go's gzipPools, and the "same
// discipline as cdcformat.Builder" scratch reuse for segment workers (the
// decoded chunks themselves escape to the consumer, so only the transient
// inflate state is poolable).
var gzipReaderPool sync.Pool // *gzip.Reader

func getGzipReader(r io.Reader) (*gzip.Reader, error) {
	if zr, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := zr.Reset(r); err != nil {
			gzipReaderPool.Put(zr)
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

func putGzipReader(zr *gzip.Reader) { gzipReaderPool.Put(zr) }

// emptySource is an always-exhausted frameSource: what a seek landing
// exactly at the end of a blob iterates over.
type emptySource struct{}

func (emptySource) Next() (*Frame, error) { return nil, io.EOF }
func (emptySource) Frames() uint64        { return 0 }
func (emptySource) Events() uint64        { return 0 }
func (emptySource) FlushPoints() uint64   { return 0 }
func (emptySource) Close() error          { return nil }

// decodeJob kinds.
const (
	djRaw = iota // verify + parse one raw frame (stream path)
	djSeg        // inflate + decode one blob segment (seekable path)
	djEnd        // terminal marker: err is io.EOF or the raw-scan failure
)

// decodeJob is one unit of decode work. Jobs are pooled; ownership passes
// dispatcher → worker → consumer through the channel sends, so no lock
// guards the fields. ready is a one-token latch the worker fills once the
// outputs are final (buffered so an abandoned job never blocks a worker).
type decodeJob struct {
	kind   int
	raw    rawFrame     // djRaw input
	seg    segmentRange // djSeg input
	frames []*Frame     // decoded output, in stream order
	err    error        // decode failure cause after frames, or io.EOF
	trunc  bool         // err is a truncation cause: wrap with prefix counts
	ready  chan struct{}
}

// segmentRange is one independently decodable byte range of a seekable
// record blob: a whole number of gzip members between committed cuts.
type segmentRange struct {
	ra  io.ReaderAt
	off int64
	n   int64
	seg int // segment ordinal, for error text
}

// parallelSource is the pooled frameSource behind a RecordIter when
// DecodeWorkers ≥ 1. One dispatcher goroutine scans input in stream order
// and commits each job to the delivery ring before handing it to the
// worker stage (commit-before-worker, exactly the encode pipeline's
// ordering trick), so ring order IS stream order; the consumer waits on
// each job's ready latch and walks its frames.
type parallelSource struct {
	q    *spsc.Queue[*decodeJob]
	jobs chan *decodeJob
	wg   sync.WaitGroup // dispatcher + workers

	jobPool   sync.Pool // *decodeJob
	closeOnce sync.Once

	// Consumer-side state: the job being delivered, the latched terminal
	// error, and the delivered-frontier counters (what a serial reader
	// would have counted at the same position).
	cur         *decodeJob
	curIdx      int
	err         error
	frames      uint64
	events      uint64
	flushPoints uint64

	// Instruments (nil-safe).
	mBusy    *obs.Gauge
	mStageNs *obs.Histogram
}

var _ frameSource = (*parallelSource)(nil)

// errIterClosed reports Next after Close on a healthy (non-exhausted)
// iterator.
var errIterClosed = errors.New("core: record iterator closed")

func newParallelSource(o DecoderOptions) *parallelSource {
	d := &parallelSource{
		q:    spsc.New[*decodeJob](o.Prefetch),
		jobs: make(chan *decodeJob, o.DecodeWorkers),
	}
	d.jobPool.New = func() any { return new(decodeJob) }
	if reg := o.Obs; reg != nil {
		d.mBusy = reg.Gauge("decode.workers.busy")
		d.mStageNs = reg.Histogram("decode.stage.ns", obs.LatencyBounds())
		d.q.Instrument(spsc.Instruments{Depth: reg.Gauge("decode.prefetch.depth")})
	}
	for i := 0; i < o.DecodeWorkers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d
}

func (d *parallelSource) getJob(kind int) *decodeJob {
	j := d.jobPool.Get().(*decodeJob)
	j.kind = kind
	if j.ready == nil {
		j.ready = make(chan struct{}, 1)
	}
	return j
}

// recycle returns a delivered job to the pool, keeping its backing arrays
// and ready latch (the latch is drained: the consumer received its token).
func (d *parallelSource) recycle(j *decodeJob) {
	j.raw = rawFrame{}
	j.seg = segmentRange{}
	j.frames = j.frames[:0]
	j.err = nil
	j.trunc = false
	d.jobPool.Put(j)
}

// dispatchFrames is the stream-path dispatcher: it owns the serial gzip
// inflate and raw frame scan, committing one job per frame. fr's reader
// must not be touched by anyone else until the pipeline winds down.
func (d *parallelSource) dispatchFrames(fr *FrameReader) {
	defer d.wg.Done()
	defer close(d.jobs)
	defer fr.Close() //cdc:allow(errsink) read-side close; decode errors ride the terminal job
	for {
		raw, err := fr.readRaw()
		if err != nil {
			t := d.getJob(djEnd)
			t.err = err
			t.trunc = err != io.EOF
			d.q.Enqueue(t)
			return
		}
		j := d.getJob(djRaw)
		j.raw = raw
		if !d.q.Enqueue(j) {
			return // consumer closed the iterator early
		}
		d.jobs <- j
	}
}

// dispatchSegments is the seekable-path dispatcher: segments are known up
// front, so the dispatcher only paces admission against the prefetch
// window while workers inflate and decode concurrently.
func (d *parallelSource) dispatchSegments(segs []segmentRange) {
	defer d.wg.Done()
	defer close(d.jobs)
	for _, sg := range segs {
		j := d.getJob(djSeg)
		j.seg = sg
		if !d.q.Enqueue(j) {
			return // consumer closed the iterator early
		}
		d.jobs <- j
	}
	t := d.getJob(djEnd)
	t.err = io.EOF
	d.q.Enqueue(t)
}

func (d *parallelSource) worker() {
	defer d.wg.Done()
	for j := range d.jobs {
		d.mBusy.Add(1)
		stop := d.mStageNs.StartTimer()
		switch j.kind {
		case djRaw:
			f, err := parseFrame(j.raw)
			if err != nil {
				j.err, j.trunc = err, true
			} else {
				j.frames = append(j.frames, f)
			}
		case djSeg:
			d.decodeSegment(j)
		}
		stop()
		d.mBusy.Add(-1)
		j.ready <- struct{}{}
	}
}

// decodeSegment inflates and decodes one whole segment into j.frames. A
// failure mid-segment keeps the frames decoded before it and records the
// cause; the consumer surfaces it at the exact frame position a serial
// decode would have.
func (d *parallelSource) decodeSegment(j *decodeJob) {
	sr := io.NewSectionReader(j.seg.ra, j.seg.off, j.seg.n)
	zr, err := getGzipReader(sr)
	if err != nil {
		j.err, j.trunc = fmt.Errorf("core: segment %d: opening gzip member: %w", j.seg.seg, noEOF(err)), true
		return
	}
	fr := &FrameReader{zr: zr, br: bufio.NewReader(zr)}
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var te *TruncatedRecordError
			if errors.As(err, &te) {
				j.err, j.trunc = te.Cause, true
			} else {
				j.err = err
			}
			return // reader state is suspect; do not recycle zr
		}
		j.frames = append(j.frames, f)
	}
	putGzipReader(zr)
}

// Next returns the next verified frame in stream order, io.EOF at a clean
// end, or a *TruncatedRecordError carrying the delivered-prefix counts.
func (d *parallelSource) Next() (*Frame, error) {
	for {
		if d.err != nil {
			return nil, d.err
		}
		if d.cur != nil {
			if d.curIdx < len(d.cur.frames) {
				f := d.cur.frames[d.curIdx]
				d.curIdx++
				d.count(f)
				return f, nil
			}
			err, trunc := d.cur.err, d.cur.trunc
			d.recycle(d.cur)
			d.cur, d.curIdx = nil, 0
			if err != nil {
				return nil, d.fail(err, trunc)
			}
			continue
		}
		j, ok := d.q.Dequeue()
		if !ok {
			d.err = errIterClosed
			return nil, d.err
		}
		if j.kind != djEnd {
			<-j.ready
		}
		d.cur, d.curIdx = j, 0
	}
}

// fail latches the terminal state, wrapping truncation causes with the
// consumer-frontier counts so the error is position-identical to a serial
// decode's.
func (d *parallelSource) fail(cause error, trunc bool) error {
	switch {
	case cause == io.EOF:
		d.err = io.EOF
	case trunc:
		d.err = &TruncatedRecordError{
			Frames:      d.frames,
			Events:      d.events,
			FlushPoints: d.flushPoints,
			Cause:       cause,
		}
	default:
		d.err = cause
	}
	return d.err
}

// count folds one delivered frame into the frontier counters.
func (d *parallelSource) count(f *Frame) {
	d.frames++
	if f.Chunk != nil {
		d.events += f.Chunk.NumMatched
	}
	if f.Flush {
		d.flushPoints++
	}
}

// Frames reports the number of frames delivered to the consumer so far.
func (d *parallelSource) Frames() uint64 { return d.frames }

// Events reports the matched receive events delivered so far.
func (d *parallelSource) Events() uint64 { return d.events }

// FlushPoints reports the flush-point marks delivered so far.
func (d *parallelSource) FlushPoints() uint64 { return d.flushPoints }

// Close stops the pipeline: the delivery ring is closed (unblocking a
// dispatcher waiting on a full window), the dispatcher closes the worker
// stage, and Close returns once every goroutine has exited — after which
// the underlying reader is the caller's again.
func (d *parallelSource) Close() error {
	d.closeOnce.Do(func() {
		d.q.Close()
		d.wg.Wait()
	})
	if d.err == nil {
		d.err = errIterClosed
	}
	return nil
}

// OpenRecordOptions is OpenRecord with a decode policy: DecodeWorkers ≥ 1
// verifies and parses frames on a worker pool with ordered delivery and a
// bounded prefetch window; 0 decodes serially, exactly OpenRecord. The
// frames arrive byte-identical in either mode (pinned by golden tests).
//
// With workers, a pipeline goroutine reads rd until the stream ends or the
// iterator is closed; the caller must not touch rd again until Close
// returns. For seekable blobs with a chunk index, OpenRecordSegments also
// parallelizes the gzip inflate.
func OpenRecordOptions(rd io.Reader, o DecoderOptions) (*RecordIter, error) {
	o.fill()
	if o.DecodeWorkers <= 0 {
		return OpenRecord(rd)
	}
	fr, err := NewFrameReader(rd)
	if err != nil {
		return nil, err
	}
	d := newParallelSource(o)
	d.wg.Add(1)
	go d.dispatchFrames(fr)
	return &RecordIter{src: d, names: make(map[uint64]string)}, nil
}

// OpenRecordSegments opens a whole seekable record blob for
// segment-parallel decode. cuts are the committed chunk-index offsets of a
// record written with EncoderOptions.SeekableCuts — each one a gzip member
// boundary — and size is the blob length; the byte ranges between
// consecutive cuts decode independently, so workers inflate and parse whole
// epochs concurrently while ordered delivery preserves exact stream order
// from byte zero (magic included). Out-of-range or unsorted cut offsets
// are ignored rather than trusted.
//
// With DecodeWorkers == 0 this is a serial full decode of the blob. Unlike
// OpenRecordAt, the iterator always starts at the beginning: it is a
// faster full read, not a seek.
func OpenRecordSegments(ra io.ReaderAt, size int64, cuts []int64, o DecoderOptions) (*RecordIter, error) {
	return OpenRecordSegmentsAt(ra, size, 0, cuts, o)
}

// OpenRecordSegmentsAt is OpenRecordSegments with a seek: decoding starts
// at blob offset start — either 0 (the record head, magic expected) or a
// committed cut offset (a gzip member boundary, no magic) — and covers the
// bytes from there to size. The paced replay feed uses it to jump the
// decode pipeline to an epoch boundary instead of re-scanning the record.
// Cut offsets at or before start are ignored, so passing the full cut list
// is fine. As with OpenRecordAt, callsite-name frames before the seek
// point are not replayed.
//
// With DecodeWorkers == 0 the tail is decoded serially from start.
func OpenRecordSegmentsAt(ra io.ReaderAt, size, start int64, cuts []int64, o DecoderOptions) (*RecordIter, error) {
	o.fill()
	if start < 0 || start > size {
		return nil, fmt.Errorf("core: seek offset %d outside blob of %d bytes", start, size)
	}
	if start == size {
		// A cut at the very end of the blob (final flush at close) has an
		// empty tail: a valid seek target with nothing left to decode.
		return &RecordIter{src: emptySource{}, names: make(map[uint64]string)}, nil
	}
	if o.DecodeWorkers <= 0 {
		if start == 0 {
			return OpenRecord(io.NewSectionReader(ra, 0, size))
		}
		return OpenRecordAt(io.NewSectionReader(ra, start, size-start))
	}
	prev := start
	if start == 0 {
		magic := make([]byte, len(Magic))
		if _, err := io.ReadFull(io.NewSectionReader(ra, 0, size), magic); err != nil {
			return nil, &TruncatedRecordError{Cause: fmt.Errorf("core: reading magic: %w", noEOF(err))}
		}
		if string(magic) != Magic {
			return nil, fmt.Errorf("core: bad magic %q", magic)
		}
		prev = int64(len(Magic))
	}
	// Sanitize the cut list into strictly increasing member boundaries
	// inside (start, size); the tail past the last cut is the final
	// segment.
	var segs []segmentRange
	for _, c := range cuts {
		if c <= prev || c >= size {
			continue
		}
		segs = append(segs, segmentRange{ra: ra, off: prev, n: c - prev, seg: len(segs)})
		prev = c
	}
	if prev < size {
		segs = append(segs, segmentRange{ra: ra, off: prev, n: size - prev, seg: len(segs)})
	}
	d := newParallelSource(o)
	d.wg.Add(1)
	go d.dispatchSegments(segs)
	return &RecordIter{src: d, names: make(map[uint64]string)}, nil
}
