// Package record implements the record-mode tool layer (paper §4.2,
// Fig. 11): the application's MF calls are intercepted, each observed
// receive event is pushed onto an SPSC observe queue, and a dedicated CDC
// goroutine (the paper's "CDC thread") drains the queue, encodes events and
// writes the record — all off the application's critical path.
//
// The layer stacks above the lamport clock layer:
//
//	app → record.Recorder → lamport.Layer → simmpi.Comm
//
// Events are keyed by matching-function callsite (§4.4 MF identification)
// unless disabled. Consecutive failed tests aggregate into one
// unmatched-test row with a recurrence count, exactly as the paper's count
// column does.
package record

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/callsite"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/spsc"
	"cdcreplay/internal/tables"
)

// Sink consumes what the CDC goroutine drains from the observe queue.
// *core.Encoder is the production sink; the paper's comparison methods
// (baseline.Method) and test tees are sinks too. Every call is required, so
// a wrapper that forgets to forward one fails to compile instead of
// dropping it.
type Sink interface {
	// Observe feeds one record-table row of MF callsite callsite.
	Observe(callsite uint64, ev tables.Event) error
	// RegisterCallsite names callsite id; the recorder calls it once,
	// before the callsite's first row.
	RegisterCallsite(id uint64, name string) error
	// FlushAll flushes every pending chunk to storage (§3.5). clock is the
	// rank's Lamport clock at the newest flushed row, stamped into the
	// flush-point mark.
	FlushAll(clock uint64) error
	// NoteCollective hands over the clock the rank left its newest
	// collective with; later flush-point marks carry it.
	NoteCollective(clock uint64)
	// Close flushes what is left and finalizes the record.
	Close() error
}

// Options configure a Recorder.
type Options struct {
	// QueueCapacity bounds the observe queue (default 65536 events).
	QueueCapacity int
	// DisableMFID merges all callsites into one record stream,
	// reproducing the paper's "CDC (RE+PE+LPE)" ablation.
	DisableMFID bool
	// FlushInterval, when positive, makes the CDC goroutine flush all
	// pending chunks to storage at least this often while the queue is
	// idle — the periodic memory-bound flush of §3.5. Zero disables
	// time-based flushing (chunks still flush by event count).
	FlushInterval time.Duration
	// FlushEveryRows, when positive, flushes all pending chunks after
	// every N observed rows. Unlike FlushInterval the cadence is a pure
	// function of the event stream, so crash tests can place flush points
	// deterministically.
	FlushEveryRows int
	// Obs, when non-nil, receives the recorder's metrics (record.* names,
	// DESIGN.md §8). Nil disables instrumentation at the cost of one
	// pointer check per instrument site.
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.QueueCapacity == 0 {
		o.QueueCapacity = 65536
	}
}

// queueItem is one observe-queue row. It holds no pointers, so the ring of
// QueueCapacity items is allocated as memory the garbage collector never
// scans.
type queueItem struct {
	callsite uint64
	// first marks the callsite's first row; its name waits in the
	// Recorder's names table.
	first bool
	ev    tables.Event
	// clock is the rank's Lamport clock sampled when the MF call producing
	// this row returned. The CDC goroutine stamps the newest row's clock
	// into flush-point marks so salvage can bound which of this rank's
	// sends each cut covers.
	clock uint64
	// coll is the rank's Lamport clock when it last left a collective
	// before this row's MF call (zero before the first). The CDC goroutine
	// hands the newest to the sink, whose marks carry it so salvage
	// keeps a cut past a collective only if every rank's cut reaches it.
	coll uint64
}

// RateStats capture the §6.2 queue-throughput measurement.
type RateStats struct {
	// Enqueued is the number of rows the main thread produced.
	Enqueued uint64
	// EnqueueBlocked counts Enqueue calls that found the queue full at
	// least once (expected to stay zero: the CDC thread drains faster). It
	// is the queue's own stall count, the one record.queue.stalls reports.
	EnqueueBlocked uint64
	// DrainDuration is the CDC goroutine's busy time: every stretch it
	// spends processing rows or flushing rather than waiting on the queue.
	DrainDuration time.Duration
}

// Recorder is the record-mode layer for one rank.
type Recorder struct {
	next simmpi.MPI
	sink Sink
	opts Options

	q    *spsc.Queue[queueItem]
	done chan error

	seenCallsite map[uint64]bool
	// names hands callsite names to the CDC goroutine off the queue: the
	// producer stores a name before it enqueues the callsite's first row,
	// and the CDC goroutine takes it out when it dequeues that row.
	namesMu sync.Mutex
	names   map[uint64]string

	// clockNow samples the layer below's Lamport clock (nil when the next
	// layer has none).
	clockNow func() uint64
	// coll is the clock sampled when the application last left a
	// collective; rows enqueued after it carry it.
	coll uint64

	// firstErr latches the first sink/IO failure the CDC goroutine
	// hits, so the application thread observes it from its next MF call
	// instead of discovering garbage at Close.
	firstErr  atomic.Pointer[error]
	abandoned atomic.Bool

	stats  RateStats
	closed bool

	// obs instruments, nil when Options.Obs is nil (no-op calls).
	mRows      *obs.Counter
	mBatchRows *obs.Histogram
	mFlushNs   *obs.Histogram
	mFlushes   *obs.Counter
	obsReg     *obs.Registry
}

var _ simmpi.MPI = (*Recorder)(nil)

// New creates a Recorder for one rank writing to sink, and starts its CDC
// goroutine. Close must be called to flush and stop it.
func New(next simmpi.MPI, sink Sink, opts Options) *Recorder {
	opts.fill()
	r := &Recorder{
		next:         next,
		sink:         sink,
		opts:         opts,
		q:            spsc.New[queueItem](opts.QueueCapacity),
		done:         make(chan error, 1),
		seenCallsite: make(map[uint64]bool),
		names:        make(map[uint64]string),
	}
	if c, ok := next.(interface{ Clock() uint64 }); ok {
		r.clockNow = c.Clock
	}
	reg := opts.Obs
	r.obsReg = reg
	r.q.Instrument(spsc.Instruments{
		Enqueued: reg.Counter("record.queue.enqueued"),
		Stalls:   reg.Counter("record.queue.stalls"),
		Depth:    reg.Gauge("record.queue.depth"),
	})
	r.mRows = reg.Counter("record.rows")
	r.mBatchRows = reg.Histogram("record.batch.rows", obs.ExpBounds(1, 2, 20))
	r.mFlushNs = reg.Histogram("record.flush.ns", obs.LatencyBounds())
	r.mFlushes = reg.Counter("record.flushes")
	go r.cdcThread()
	return r
}

// cdcThread is the dedicated encoder goroutine (paper Fig. 11). It owns the
// consecutive-failed-test aggregation (the count column of §3.1): producers
// enqueue one row per failed test, and the aggregate row is materialized
// here just before the event that ends the run — which keeps every flushed
// cut complete, with no unmatched tail stranded on the application thread.
func (r *Recorder) cdcThread() {
	// busy sums the stretches spent off the queue wait; burst starts the
	// current one (zero while waiting), so the clock is not read per row.
	var busy time.Duration
	var burst time.Time
	var err error
	var lastColl uint64
	timedFlush := r.opts.FlushInterval > 0
	lastFlush := time.Now() //cdc:allow(nodetermflow) wall clock only paces background flushes; row order is fixed before rows reach the flusher
	rowsSinceFlush := 0
	var lastClock uint64
	// A flush that comes due mid-group (the producer enqueues one row per
	// matched message, so a multi-message MF call spans several items) is
	// deferred until the group's last row: flushing only at group boundaries
	// guarantees no stream's buffer ends inside a with_next group, so every
	// FlushAll seals a flush-point mark. It also keeps lastClock sound as the
	// mark's clock — every row processed before the mark is in the flushed
	// cut, so a prefix replay regenerates all sends up to that clock.
	pendingFlush := false
	midGroup := false

	// pendingUnmatched aggregates consecutive failed tests per callsite;
	// order lists callsites with a pending run, in first-pending order.
	pendingUnmatched := make(map[uint64]uint64)
	var pendingOrder []uint64

	latch := func(e error) {
		if err == nil && e != nil {
			err = e
			first := e // escapes only here, not on every row's latch
			r.firstErr.CompareAndSwap(nil, &first)
		}
	}
	observe := func(cs uint64, ev tables.Event) {
		if err != nil {
			return
		}
		latch(r.sink.Observe(cs, ev))
	}
	flushPendingUnmatched := func(only uint64, all bool) {
		if all {
			for _, cs := range pendingOrder {
				if n := pendingUnmatched[cs]; n > 0 {
					pendingUnmatched[cs] = 0
					observe(cs, tables.Unmatched(n))
				}
			}
			pendingOrder = pendingOrder[:0]
			return
		}
		if n := pendingUnmatched[only]; n > 0 {
			pendingUnmatched[only] = 0
			observe(only, tables.Unmatched(n))
		}
	}
	flushAll := func() {
		if err != nil {
			return
		}
		start := time.Now() //cdc:allow(nodetermflow) flush span timing is observability metadata only
		if burst.IsZero() { // an idle flush is busy time too
			burst = start
		}
		span := r.obsReg.StartSpan("record.flush")
		flushPendingUnmatched(0, true)
		if err == nil {
			latch(r.sink.FlushAll(lastClock))
		}
		span.End()
		lastFlush = time.Now() //cdc:allow(nodetermflow) wall clock only paces background flushes
		r.mFlushNs.ObserveDuration(lastFlush.Sub(start))
		r.mBatchRows.Observe(uint64(rowsSinceFlush))
		r.mFlushes.Inc()
		rowsSinceFlush = 0
		pendingFlush = false
	}

	for {
		if !burst.IsZero() && r.q.Len() == 0 {
			busy += time.Since(burst) //cdc:allow(nodetermflow) busy-time metric only
			burst = time.Time{}
		}
		var item queueItem
		if timedFlush {
			var ok, done bool
			item, ok, done = r.q.DequeueTimeout(r.opts.FlushInterval)
			if done {
				break
			}
			if !ok || time.Since(lastFlush) >= r.opts.FlushInterval { //cdc:allow(nodetermflow) wall clock only paces background flushes
				if midGroup {
					pendingFlush = true
				} else {
					flushAll()
				}
				if !ok {
					continue
				}
			}
		} else {
			var alive bool
			item, alive = r.q.Dequeue()
			if !alive {
				break
			}
		}
		if burst.IsZero() {
			burst = time.Now() //cdc:allow(nodetermflow) busy-time metric only
		}
		if item.clock > lastClock {
			lastClock = item.clock
		}
		if item.coll > lastColl {
			lastColl = item.coll
			r.sink.NoteCollective(lastColl)
		}
		if err == nil && item.first {
			latch(r.sink.RegisterCallsite(item.callsite, r.takeName(item.callsite)))
		}
		if !item.ev.Flag {
			// A failed test: fold into the callsite's pending run.
			if pendingUnmatched[item.callsite] == 0 {
				pendingOrder = append(pendingOrder, item.callsite)
			}
			pendingUnmatched[item.callsite] += item.ev.Count
		} else {
			flushPendingUnmatched(item.callsite, false)
			observe(item.callsite, item.ev)
		}
		r.mRows.Inc()
		midGroup = item.ev.Flag && item.ev.WithNext
		rowsSinceFlush++
		if r.opts.FlushEveryRows > 0 && rowsSinceFlush >= r.opts.FlushEveryRows {
			pendingFlush = true
		}
		if pendingFlush && !midGroup {
			flushAll()
		}
	}
	if r.abandoned.Load() {
		// Simulated crash: whatever the last storage flush persisted is
		// the record; no trailing rows, no clean close.
		r.stats.DrainDuration = busy
		r.done <- err
		return
	}
	flushPendingUnmatched(0, true)
	if cerr := r.sink.Close(); cerr != nil {
		latch(cerr)
	}
	r.stats.DrainDuration = busy
	r.done <- err
}

// Close stops the CDC goroutine, flushes any pending unmatched run and
// finalizes the record. It must be called from the rank's own goroutine
// after the application finishes.
func (r *Recorder) Close() error {
	if r.closed {
		return errors.New("record: already closed")
	}
	r.closed = true
	r.q.Close()
	return <-r.done
}

// Abandon simulates the rank dying mid-run: the CDC goroutine drains what
// was already enqueued but the sink is never flushed or closed, so the
// record ends at its last storage flush — exactly the state a real crash
// leaves behind for salvage. Safe to call from any goroutine; returns after
// the CDC goroutine has exited.
func (r *Recorder) Abandon() {
	if r.closed {
		return
	}
	r.closed = true
	r.abandoned.Store(true)
	r.q.Close()
	<-r.done
}

// Err returns the first sink/IO error the CDC goroutine hit, or nil.
// After a failure every subsequent MF call also returns it.
func (r *Recorder) Err() error {
	if p := r.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns queue-rate statistics (valid after Close).
func (r *Recorder) Stats() RateStats {
	s := r.stats
	s.EnqueueBlocked = r.q.Stalls()
	return s
}

func (r *Recorder) enqueue(cs uint64, name string, ev tables.Event) {
	if r.Err() != nil {
		// The sink already failed; producing more rows would only be
		// encoded into garbage, so stop at the latched prefix.
		return
	}
	// Hand the callsite name over with the first row actually enqueued for
	// it.
	first := !r.seenCallsite[cs]
	if first {
		r.seenCallsite[cs] = true
		r.namesMu.Lock()
		r.names[cs] = name
		r.namesMu.Unlock()
	}
	var clock uint64
	if r.clockNow != nil {
		clock = r.clockNow()
	}
	item := queueItem{callsite: cs, first: first, ev: ev, clock: clock, coll: r.coll}
	if !r.q.Enqueue(item) {
		return
	}
	r.stats.Enqueued++
}

// takeName removes and returns the name enqueue stored for callsite cs.
func (r *Recorder) takeName(cs uint64) string {
	r.namesMu.Lock()
	defer r.namesMu.Unlock()
	name := r.names[cs]
	delete(r.names, cs)
	return name
}

// observe records an MF call outcome: sts holds the matched completions in
// application-observed order (empty means an unmatched test). It must be
// called directly by the exported MF wrapper so the callsite skip count
// stays fixed; noinline keeps the frame chain intact.
//
//go:noinline
func (r *Recorder) observe(matched bool, sts []simmpi.Status) {
	cs, name := uint64(0), "merged"
	if !r.opts.DisableMFID {
		// Caller chain: app → Recorder method → observe → callsite.ID.
		cs, name = callsite.ID(3)
	}
	if !matched {
		// One row per failed test; the CDC goroutine folds consecutive
		// runs into a single counted row (§3.1's count column) so the
		// aggregate never sits on this thread across a flush cut.
		r.enqueue(cs, name, tables.Unmatched(1))
		return
	}
	for i, st := range sts {
		withNext := i+1 < len(sts)
		r.enqueue(cs, name, tables.MatchedTagged(int32(st.Source), int32(st.Tag), st.Clock, withNext))
	}
}

// Rank returns the wrapped endpoint's rank.
func (r *Recorder) Rank() int { return r.next.Rank() }

// Size returns the world size.
func (r *Recorder) Size() int { return r.next.Size() }

// Send passes through; sends are deterministic (Definition 7).
func (r *Recorder) Send(dst, tag int, data []byte) error {
	if err := r.Err(); err != nil {
		return err
	}
	return r.next.Send(dst, tag, data)
}

// Irecv passes through; recording happens at match time.
func (r *Recorder) Irecv(src, tag int) (*simmpi.Request, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	return r.next.Irecv(src, tag)
}

// Test records the matching status of a single test.
func (r *Recorder) Test(req *simmpi.Request) (bool, simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return false, simmpi.Status{}, err
	}
	ok, st, err := r.next.Test(req)
	if err != nil {
		return ok, st, err
	}
	if ok {
		r.observe(true, []simmpi.Status{st})
	} else {
		r.observe(false, nil)
	}
	return ok, st, err
}

// Testany records like Test over a request set.
func (r *Recorder) Testany(reqs []*simmpi.Request) (int, bool, simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return -1, false, simmpi.Status{}, err
	}
	i, ok, st, err := r.next.Testany(reqs)
	if err != nil {
		return i, ok, st, err
	}
	if ok {
		r.observe(true, []simmpi.Status{st})
	} else {
		r.observe(false, nil)
	}
	return i, ok, st, err
}

// Testsome records the matched message set, chaining rows via with_next.
func (r *Recorder) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	idxs, sts, err := r.next.Testsome(reqs)
	if err != nil {
		return idxs, sts, err
	}
	r.observe(len(sts) > 0, sts)
	return idxs, sts, err
}

// Testall records either one failed test or the full with_next-chained
// matched set in request order.
func (r *Recorder) Testall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return false, nil, err
	}
	ok, sts, err := r.next.Testall(reqs)
	if err != nil {
		return ok, sts, err
	}
	if ok && len(sts) > 0 {
		r.observe(true, sts)
	} else if !ok {
		r.observe(false, nil)
	}
	return ok, sts, err
}

// Wait records a single matched event.
func (r *Recorder) Wait(req *simmpi.Request) (simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return simmpi.Status{}, err
	}
	st, err := r.next.Wait(req)
	if err != nil {
		return st, err
	}
	r.observe(true, []simmpi.Status{st})
	return st, err
}

// Waitany records a single matched event.
func (r *Recorder) Waitany(reqs []*simmpi.Request) (int, simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return -1, simmpi.Status{}, err
	}
	i, st, err := r.next.Waitany(reqs)
	if err != nil {
		return i, st, err
	}
	r.observe(true, []simmpi.Status{st})
	return i, st, err
}

// Waitsome records the matched message set with with_next chaining.
func (r *Recorder) Waitsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	idxs, sts, err := r.next.Waitsome(reqs)
	if err != nil {
		return idxs, sts, err
	}
	r.observe(true, sts)
	return idxs, sts, err
}

// Waitall records every completion as one with_next-chained matched set, in
// the order the layer below reports statuses (request order).
func (r *Recorder) Waitall(reqs []*simmpi.Request) ([]simmpi.Status, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	sts, err := r.next.Waitall(reqs)
	if err != nil {
		return sts, err
	}
	if len(sts) > 0 {
		r.observe(true, sts)
	}
	return sts, err
}

// leftCollective samples the clock after a collective returned. Collectives
// pass through unrecorded: their results are deterministic only given every
// rank's contribution, so the marks carry this clock and salvage keeps a
// cut past a collective only where every rank's contribution is replayed
// too.
func (r *Recorder) leftCollective(err error) {
	if err == nil && r.clockNow != nil {
		r.coll = r.clockNow()
	}
}

// Barrier passes through and notes the collective.
func (r *Recorder) Barrier() error {
	err := r.next.Barrier()
	r.leftCollective(err)
	return err
}

// Allreduce passes through and notes the collective.
func (r *Recorder) Allreduce(v float64, op simmpi.ReduceOp) (float64, error) {
	out, err := r.next.Allreduce(v, op)
	r.leftCollective(err)
	return out, err
}

// Reduce passes through and notes the collective.
func (r *Recorder) Reduce(v float64, op simmpi.ReduceOp, root int) (float64, error) {
	out, err := r.next.Reduce(v, op, root)
	r.leftCollective(err)
	return out, err
}

// Bcast passes through and notes the collective.
func (r *Recorder) Bcast(data []byte, root int) ([]byte, error) {
	out, err := r.next.Bcast(data, root)
	r.leftCollective(err)
	return out, err
}

// Gather passes through and notes the collective.
func (r *Recorder) Gather(v float64, root int) ([]float64, error) {
	out, err := r.next.Gather(v, root)
	r.leftCollective(err)
	return out, err
}

// Allgather passes through and notes the collective.
func (r *Recorder) Allgather(v float64) ([]float64, error) {
	out, err := r.next.Allgather(v)
	r.leftCollective(err)
	return out, err
}
