// Package baseline implements the comparison recorders of the paper's
// evaluation (§6.1, Fig. 13):
//
//   - Raw: the traditional order-replay format of Fig. 4, bit-packed at
//     tables.BitsPerRow (162) bits per row, with no compression;
//   - Gzip: the same packed rows passed through gzip;
//   - RE: CDC's redundancy elimination only (Fig. 6 tables, plain varints)
//     followed by gzip — the paper's "CDC (RE)" bar.
//
// The full "CDC (RE+PE+LPE)" and "CDC" methods are core.Encoder itself,
// which satisfies Method unchanged: the former fed with every callsite
// merged into 0 (no MF identification), the latter with per-callsite
// streams (§4.4). The Method interface lets the harness drive all five over
// an identical event stream, and lets a recorder drive any of them.
package baseline

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"io"

	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// Method is a recording backend fed with the per-callsite event stream.
// Its method set is a superset of record.Sink, so a recorder can drive any
// Method.
type Method interface {
	// Observe feeds one record-table row.
	Observe(callsite uint64, ev tables.Event) error
	// RegisterCallsite names an MF callsite before its first row.
	RegisterCallsite(id uint64, name string) error
	// FlushAll flushes every pending chunk, stamping clock into the
	// flush-point mark (§3.5).
	FlushAll(clock uint64) error
	// NoteCollective hands over the clock the rank left its newest
	// collective with, for later flush-point marks.
	NoteCollective(clock uint64)
	// Close flushes buffered state.
	Close() error
	// BytesWritten reports the total encoded size (exact after Close).
	BytesWritten() int64
}

// noControls gives the comparison methods the control calls as no-ops:
// their formats have no callsite names, flush-point marks or collective
// clocks.
type noControls struct{}

// RegisterCallsite implements Method; the name is dropped.
func (noControls) RegisterCallsite(uint64, string) error { return nil }

// FlushAll implements Method; rows stay buffered until Close.
func (noControls) FlushAll(uint64) error { return nil }

// NoteCollective implements Method; the clock is dropped.
func (noControls) NoteCollective(uint64) {}

type countingWriter struct {
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.n += int64(len(p))
	return len(p), nil
}

// bitWriter packs bits MSB-first into an io.Writer.
type bitWriter struct {
	w    io.Writer
	cur  uint8
	nbit uint8
	err  error
}

func (b *bitWriter) writeBits(v uint64, n uint8) {
	for i := int(n) - 1; i >= 0; i-- {
		bit := uint8(v>>uint(i)) & 1
		b.cur = b.cur<<1 | bit
		b.nbit++
		if b.nbit == 8 {
			if b.err == nil {
				_, b.err = b.w.Write([]byte{b.cur})
			}
			b.cur, b.nbit = 0, 0
		}
	}
}

func (b *bitWriter) flush() error {
	if b.nbit > 0 {
		pad := 8 - b.nbit
		b.cur <<= pad
		if b.err == nil {
			_, b.err = b.w.Write([]byte{b.cur})
		}
		b.cur, b.nbit = 0, 0
	}
	return b.err
}

func packEvent(b *bitWriter, ev tables.Event) {
	b.writeBits(ev.Count, 64)
	var flag, withNext uint64
	if ev.Flag {
		flag = 1
	}
	if ev.WithNext {
		withNext = 1
	}
	b.writeBits(flag, 1)
	b.writeBits(withNext, 1)
	b.writeBits(uint64(uint32(ev.Rank)), 32)
	b.writeBits(ev.Clock, 64)
}

// Raw is the uncompressed traditional recorder.
type Raw struct {
	noControls
	cw countingWriter
	bw bitWriter
}

// NewRaw creates a Raw method.
func NewRaw() *Raw {
	r := &Raw{}
	r.bw.w = &r.cw
	return r
}

// Observe implements Method.
func (r *Raw) Observe(_ uint64, ev tables.Event) error {
	packEvent(&r.bw, ev)
	return r.bw.err
}

// Close implements Method.
func (r *Raw) Close() error { return r.bw.flush() }

// BytesWritten implements Method.
func (r *Raw) BytesWritten() int64 { return r.cw.n }

// Gzip packs rows like Raw and pipes them through gzip. A bufio layer
// batches the bit-packer's byte-at-a-time output so deflate sees large
// writes — without it the per-call overhead would dominate the recording
// cost and distort the Fig. 16 comparison.
type Gzip struct {
	noControls
	cw countingWriter
	zw *gzip.Writer
	bf *bufio.Writer
	bw bitWriter
}

// NewGzip creates a Gzip method.
func NewGzip() *Gzip {
	g := &Gzip{}
	g.zw = gzip.NewWriter(&g.cw)
	g.bf = bufio.NewWriterSize(g.zw, 32<<10)
	g.bw.w = g.bf
	return g
}

// Observe implements Method.
func (g *Gzip) Observe(_ uint64, ev tables.Event) error {
	packEvent(&g.bw, ev)
	return g.bw.err
}

// Close implements Method.
func (g *Gzip) Close() error {
	if err := g.bw.flush(); err != nil {
		return err
	}
	if err := g.bf.Flush(); err != nil {
		return err
	}
	return g.zw.Close()
}

// BytesWritten implements Method.
func (g *Gzip) BytesWritten() int64 { return g.cw.n }

// RE applies redundancy elimination only, serializing the Fig. 6 tables as
// plain varints (no permutation or LP encoding), then gzip.
type RE struct {
	noControls
	cw          countingWriter
	zw          *gzip.Writer
	chunkEvents int
	events      []tables.Event
	matched     int
}

// NewRE creates an RE method flushing every chunkEvents matched rows
// (0 means 4096, matching the core encoder's default).
func NewRE(chunkEvents int) *RE {
	if chunkEvents == 0 {
		chunkEvents = 4096
	}
	re := &RE{chunkEvents: chunkEvents}
	re.zw = gzip.NewWriter(&re.cw)
	return re
}

// Observe implements Method.
func (re *RE) Observe(_ uint64, ev tables.Event) error {
	re.events = append(re.events, ev)
	if ev.Flag {
		re.matched++
	}
	if re.matched >= re.chunkEvents {
		return re.flush()
	}
	return nil
}

func (re *RE) flush() error {
	if len(re.events) == 0 {
		return nil
	}
	red := tables.Eliminate(re.events)
	re.events = re.events[:0]
	re.matched = 0
	// Columnar, fixed-width layout for the matched table: adjacent clock
	// values share their high bytes, which gzip exploits far better than
	// interleaved row-major varints would.
	var w varint.Writer
	w.Uint(uint64(len(red.Matched)))
	buf := make([]byte, 0, 12*len(red.Matched))
	for _, m := range red.Matched {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rank))
	}
	for _, m := range red.Matched {
		buf = binary.LittleEndian.AppendUint64(buf, m.Clock)
	}
	w.Bytes(buf)
	w.Uint(uint64(len(red.WithNext)))
	for _, i := range red.WithNext {
		w.Uint(uint64(i))
	}
	w.Uint(uint64(len(red.Unmatched)))
	for _, u := range red.Unmatched {
		w.Uint(uint64(u.Index))
		w.Uint(u.Count)
	}
	_, err := re.zw.Write(w.Result())
	return err
}

// Close implements Method.
func (re *RE) Close() error {
	if err := re.flush(); err != nil {
		return err
	}
	return re.zw.Close()
}

// BytesWritten implements Method.
func (re *RE) BytesWritten() int64 { return re.cw.n }
