// Parallel chunk-decode pipeline (DESIGN.md §14) — the mirror image of
// pipeline.go's encode pool, feeding the replayer instead of the record
// file.
//
// Chunks are independently decodable (DST property P3), and a record
// written with SeekableCuts starts a fresh gzip member at every committed
// cut, so the byte range between two cuts inflates and decodes on its own.
// The pipeline splits a seekable blob at the store's chunk index into such
// segments, fans them across a bounded worker pool, and hands frames to the
// consumer in exact stream order through an ordered delivery stage. The
// consumer is typically a replayer; the delivery queue doubles as its
// prefetch window, a fixed 2*DecodeWorkers+4 segments ahead of the
// consumption frontier. Back-pressure is the queue itself: when the
// replayer stalls, the dispatcher blocks on a full ring and decoding
// pauses.
//
// Every other read — a plain io.Reader, a blob without a chunk index — is
// the serial FrameReader: inflate is inherently serial within one gzip
// member, so a pool over a single stream only adds hand-off cost.
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
	// DecodeWorkers fans the inflate and decode of a seekable blob's
	// segments (OpenRecordSegmentsAt) across a worker pool with ordered
	// delivery. 0 (the default) decodes serially in-line; n ≥ 1 runs n
	// workers.
	DecodeWorkers int
	// Obs, when non-nil, receives the pipeline's instruments
	// (DESIGN.md §8): decode.workers.busy, decode.prefetch.depth,
	// decode.stage.ns.
	Obs *obs.Registry
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

// decodeJob is one unit of decode work: one segment to inflate and
// decode, or (end set) the terminal marker the dispatcher queues after the
// last segment. Jobs are pooled; ownership passes dispatcher → worker →
// consumer through the channel sends, so no lock guards the fields. ready
// is a one-token latch the worker fills once the outputs are final
// (buffered so an abandoned job never blocks a worker).
type decodeJob struct {
	end    bool
	seg    segmentRange
	frames []*Frame // decoded output, in stream order
	err    error    // decode failure cause after frames, or io.EOF
	trunc  bool     // err is a truncation cause: wrap with prefix counts
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

// parallelSource is the pooled frameSource behind a segment-decoded
// RecordIter when DecodeWorkers ≥ 1. One dispatcher goroutine commits each
// segment's job to the delivery ring before handing it to the worker stage
// (commit-before-worker, exactly the encode pipeline's ordering trick), so
// ring order IS stream order; the consumer waits on each job's ready latch
// and walks its frames.
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
		// The delivery window: enough decoded segments for every worker to
		// have one in flight and one waiting, plus slack for a bursty
		// consumer. The spsc ring rounds it up to a power of two.
		q:    spsc.New[*decodeJob](2*o.DecodeWorkers + 4),
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

func (d *parallelSource) getJob(end bool) *decodeJob {
	j := d.jobPool.Get().(*decodeJob)
	j.end = end
	if j.ready == nil {
		j.ready = make(chan struct{}, 1)
	}
	return j
}

// recycle returns a delivered job to the pool, keeping its backing arrays
// and ready latch (the latch is drained: the consumer received its token).
func (d *parallelSource) recycle(j *decodeJob) {
	j.seg = segmentRange{}
	j.frames = j.frames[:0]
	j.err = nil
	j.trunc = false
	d.jobPool.Put(j)
}

// dispatchSegments is the dispatcher: segments are known up front, so it
// only paces admission against the prefetch window while workers inflate
// and decode concurrently.
func (d *parallelSource) dispatchSegments(segs []segmentRange) {
	defer d.wg.Done()
	defer close(d.jobs)
	for _, sg := range segs {
		j := d.getJob(false)
		j.seg = sg
		if !d.q.Enqueue(j) {
			return // consumer closed the iterator early
		}
		d.jobs <- j
	}
	t := d.getJob(true)
	t.err = io.EOF
	d.q.Enqueue(t)
}

func (d *parallelSource) worker() {
	defer d.wg.Done()
	for j := range d.jobs {
		d.mBusy.Add(1)
		stop := d.mStageNs.StartTimer()
		d.decodeSegment(j)
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
		if !j.end {
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
	if start < 0 || start > size {
		return nil, fmt.Errorf("core: seek offset %d outside blob of %d bytes", start, size)
	}
	if start == size && start > 0 {
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
		if prev == size {
			// A record is never the bare magic: the serial reader fails
			// opening the missing gzip stream, and so must this.
			return nil, &TruncatedRecordError{Cause: fmt.Errorf("core: opening gzip stream: %w", io.ErrUnexpectedEOF)}
		}
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
