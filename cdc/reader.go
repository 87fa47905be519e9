package cdc

import (
	"errors"
	"io"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
)

// ErrTruncatedRecord is the facade's view of core.ErrTruncatedRecord: a
// record whose tail is missing or damaged, the expected state after a
// crashed run. Match with errors.Is.
var ErrTruncatedRecord = core.ErrTruncatedRecord

// FrameKind classifies a record-stream frame.
type FrameKind int

const (
	// FrameChunk is one encoded chunk of receive events.
	FrameChunk FrameKind = iota
	// FrameCallsite registers a human-readable callsite name.
	FrameCallsite
	// FrameFlushPoint marks a consistent cut (salvage boundary).
	FrameFlushPoint
)

func (k FrameKind) String() string {
	switch k {
	case FrameChunk:
		return "chunk"
	case FrameCallsite:
		return "callsite"
	case FrameFlushPoint:
		return "flush-point"
	}
	return "unknown"
}

// Frame is one record-stream frame, summarized for tooling: enough to
// verify, inventory, and inspect a record without exposing the internal
// chunk representation.
type Frame struct {
	// Kind classifies the frame.
	Kind FrameKind
	// Bytes is the frame payload size before gzip.
	Bytes int
	// Callsite and CallsiteName identify the frame's callsite: for chunk
	// frames the stream the chunk belongs to (name as registered so far),
	// for callsite frames the registration itself.
	Callsite     uint64
	CallsiteName string
	// Events and Moves are a chunk frame's matched receive events and
	// permutation-difference rows.
	Events uint64
	Moves  int
	// FlushClock is a flush-point frame's writer Lamport clock bound.
	FlushClock uint64
}

// RecordReader streams one rank's record frame by frame in bounded
// memory — the facade form of the internal streaming iterator. It is not
// safe for concurrent use.
type RecordReader struct {
	f  io.Closer
	it *core.RecordIter
}

// readerConfig validates reader-side options (WithDecodeWorkers and
// WithObs; record- or replay-session options are rejected) and returns the
// decode policy they describe.
func readerConfig(opts []Option) (core.DecoderOptions, error) {
	cfg, err := newConfig(modeRead, opts)
	if err != nil {
		return core.DecoderOptions{}, err
	}
	return cfg.decoderOptions(), nil
}

// OpenRankRecord opens one rank's record blob from a store (see
// OpenStore) for streaming. On an incomplete run the blob arrives pinned
// to the last committed epoch line, so a record being written concurrently
// reads as a stable prefix.
//
// Reader-side options apply: with WithDecodeWorkers on a seekable store
// the committed epochs are inflated in parallel, and WithObs collects the
// decode.* instruments of that pipeline.
func OpenRankRecord(st Store, rank int, opts ...Option) (*RecordReader, error) {
	o, err := readerConfig(opts)
	if err != nil {
		return nil, err
	}
	it, r, err := store.OpenRankIter(st, rank, o)
	if err != nil {
		return nil, err
	}
	return &RecordReader{f: r, it: it}, nil
}

// Next returns the next verified frame, io.EOF at a clean end of stream, or
// an error matching ErrTruncatedRecord where a damaged record's intact
// prefix ends.
func (r *RecordReader) Next() (Frame, error) {
	f, err := r.it.Next()
	if err != nil {
		return Frame{}, err
	}
	out := Frame{Bytes: len(f.Payload)}
	switch {
	case f.Chunk != nil:
		out.Kind = FrameChunk
		out.Callsite = f.Chunk.Callsite
		out.CallsiteName = r.it.Names()[f.Chunk.Callsite]
		out.Events = f.Chunk.NumMatched
		out.Moves = len(f.Chunk.Moves)
	case f.Flush:
		out.Kind = FrameFlushPoint
		out.FlushClock = f.FlushClock
	default:
		out.Kind = FrameCallsite
		out.Callsite = f.CallsiteID
		out.CallsiteName = f.CallsiteName
	}
	return out, nil
}

// Frames, Events, and FlushPoints report totals over the CRC-verified
// frames returned so far.
func (r *RecordReader) Frames() uint64 { return r.it.Frames() }

// Events reports the matched receive events seen so far.
func (r *RecordReader) Events() uint64 { return r.it.Events() }

// FlushPoints reports the flush-point marks seen so far.
func (r *RecordReader) FlushPoints() uint64 { return r.it.FlushPoints() }

// Close releases the decompressor and the underlying file.
func (r *RecordReader) Close() error {
	return errors.Join(r.it.Close(), r.f.Close())
}

var _ io.Closer = (*RecordReader)(nil)
