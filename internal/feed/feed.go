// Package feed turns a recorded run into a live-paced "time-machine"
// stream (DESIGN.md §16, ROADMAP O4): one rank's record replayed against a
// monotone timeline derived from its clock-stamped flush marks, released at
// a controllable sim rate with pause/resume and epoch-aligned seek, and
// fanned out to any number of concurrent subscribers.
//
// # Pacing model
//
// The record's only trustworthy timestamps are the flush-point marks: each
// carries the writing rank's Lamport-clock lower bound at a consistent cut.
// The feed maps that clock axis onto the feed clock — Options.Interval wall
// time per clock tick at rate 1× — and releases each flush mark no earlier
// than its mapped deadline; the frames between two marks (one epoch's
// chunks) release as a burst once the preceding mark clears. Rate changes,
// pause, and resume re-anchor the mapping without losing position, so a
// feed resumed mid-epoch continues exactly where it stopped.
//
// The pacer never reads the wall clock directly: all time flows through
// the Clock interface, wall in production, virtual in tests.
//
// # Read-ahead
//
// The feed owns no buffer of its own. Its read-ahead is the decode
// pipeline's fixed prefetch window (DESIGN.md §14): with DecodeWorkers ≥ 1
// on a seekable store, decode workers fill up to 2*DecodeWorkers+4 epoch
// segments behind the pacer while it waits on a deadline.
package feed

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
)

// RateMax is the unpaced rate: every release deadline is "now", so the
// feed streams as fast as subscribers accept — batch replay with the feed's
// fan-out and seek surface.
var RateMax = math.Inf(1)

// EventKind classifies one feed release.
type EventKind uint8

const (
	// KindFrame is one record frame (chunk or callsite registration).
	KindFrame EventKind = iota
	// KindFlush is a flush-point mark — the paced epoch boundary.
	KindFlush
	// KindSeek marks a stream discontinuity: the feed jumped to Epoch.
	KindSeek
	// KindGap is a per-subscriber marker: Dropped releases were discarded
	// (Drop policy) between the previous event and the next one.
	KindGap
	// KindEnd is the final event: the record stream ended (Err non-empty
	// when it ended in damage rather than a clean EOF).
	KindEnd
)

func (k EventKind) String() string {
	switch k {
	case KindFrame:
		return "frame"
	case KindFlush:
		return "flush"
	case KindSeek:
		return "seek"
	case KindGap:
		return "gap"
	case KindEnd:
		return "end"
	}
	return "unknown"
}

// Event is one feed release.
type Event struct {
	// Seq numbers releases monotonically within the feed (0 for
	// subscriber-local gap markers, which sit outside the shared stream).
	Seq uint64
	// Kind classifies the event.
	Kind EventKind
	// Frame is the decoded record frame (KindFrame, KindFlush).
	Frame *core.Frame
	// Epoch is the 0-based epoch the event belongs to; for KindSeek, the
	// seek target.
	Epoch int
	// Clock is the flush mark's recorded Lamport bound (KindFlush), or
	// the seek target's base clock (KindSeek).
	Clock uint64
	// Due is the mapped release deadline of a paced event (KindFlush);
	// zero for events released without a wait.
	Due time.Time
	// At is the feed clock's time when the event was released.
	At time.Time
	// Dropped is a gap marker's discarded-release count.
	Dropped uint64
	// Err is KindEnd's failure cause, empty for a clean end of record.
	Err string
}

// Options configure a Feed.
type Options struct {
	// Rank selects which rank's record to stream.
	Rank int
	// Rate is the sim rate: recorded-clock seconds per feed second.
	// 1 (the default when zero) plays at the Interval mapping, 0.5 at
	// half speed, 2 at double; RateMax releases without waits.
	Rate float64
	// Interval is the feed time one recorded clock tick maps to at rate
	// 1×. Default 1ms.
	Interval time.Duration
	// Clock paces releases: Wall() (the default) in production, a
	// VirtualClock in tests.
	Clock Clock
	// DecodeWorkers configures the decode pipeline exactly as
	// core.DecoderOptions.DecodeWorkers does.
	DecodeWorkers int
	// SubscriberBuffer bounds each subscription's queue (default 64).
	SubscriberBuffer int
	// Policy picks the slow-consumer behaviour (default Block).
	Policy Policy
	// StartEpoch begins playback at an epoch boundary (0 = record head),
	// exactly as a Seek there.
	StartEpoch int
	// Paused opens the feed frozen, releasing nothing until Resume — the
	// way to attach subscribers before the first event goes out.
	Paused bool
	// Obs receives the feed's instruments (feed.* — see DESIGN.md §8 —
	// plus the decode pipeline's decode.*) for export. Nil means no
	// instruments; Stats counts per feed either way.
	Obs *obs.Registry
}

func (o *Options) fill() error {
	if o.Rate == 0 {
		o.Rate = 1
	}
	if o.Rate <= 0 || math.IsNaN(o.Rate) {
		return fmt.Errorf("feed: rate must be positive, got %v", o.Rate)
	}
	if o.Interval == 0 {
		o.Interval = time.Millisecond
	}
	if o.Interval < 0 {
		return fmt.Errorf("feed: interval must be positive, got %v", o.Interval)
	}
	if o.Clock == nil {
		o.Clock = Wall()
	}
	if o.SubscriberBuffer == 0 {
		o.SubscriberBuffer = 64
	}
	if o.SubscriberBuffer < 2 {
		return fmt.Errorf("feed: subscriber buffer must be at least 2, got %d", o.SubscriberBuffer)
	}
	if o.DecodeWorkers < 0 {
		o.DecodeWorkers = 0
	}
	if o.StartEpoch < 0 {
		return fmt.Errorf("feed: negative start epoch %d", o.StartEpoch)
	}
	return nil
}

// ctrl operations.
type ctrlOp uint8

const (
	opPause ctrlOp = iota
	opResume
	opRate
	opSeek
)

type ctrlMsg struct {
	op    ctrlOp
	rate  float64
	epoch int
	reply chan error
}

// iterHandle is the pump's current decode pipeline plus its blob.
type iterHandle struct {
	it   *core.RecordIter
	blob io.Closer
}

func (h *iterHandle) close() {
	if h.it != nil {
		h.it.Close()   //cdc:allow(errsink) read-side teardown; stream errors already surfaced through Next
		h.blob.Close() //cdc:allow(errsink) read-side teardown; stream errors already surfaced through Next
		h.it, h.blob = nil, nil
	}
}

// Feed is one paced replay stream over one rank's record. All controls are
// applied by the pump goroutine between releases; they are safe for
// concurrent use from any goroutine.
type Feed struct {
	st       store.Store
	rank     int
	workers  int
	interval time.Duration
	clock    Clock
	hub      *hub
	reg      *obs.Registry
	idx      []store.IndexEntry
	complete bool

	ctrl    chan ctrlMsg
	closeCh chan struct{}
	done    chan struct{}
	closing sync.Once

	// Pump-owned state mirrored for Stats.
	aRate     atomic.Uint64 // math.Float64bits
	aPaused   atomic.Bool
	aEpoch    atomic.Int64
	aReleased atomic.Uint64

	errMu sync.Mutex
	err   error

	// Export-only instruments (nil without a registry); Stats reads the
	// feed's own counts, never these, since a shared registry sums feeds.
	mRate     *obs.Gauge
	mReleased *obs.Counter
	mSeeks    *obs.Counter
	mJitter   *obs.Histogram
}

// Open validates o against st's manifest, opens the decode pipeline at
// StartEpoch, and starts the pump. The feed holds the pipeline until Close.
func Open(st store.Store, o Options) (*Feed, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	m, err := st.Manifest()
	if err != nil {
		return nil, err
	}
	if o.Rank < 0 || o.Rank >= m.Ranks {
		return nil, fmt.Errorf("feed: rank %d outside run of %d rank(s)", o.Rank, m.Ranks)
	}
	f := &Feed{
		st:       st,
		rank:     o.Rank,
		workers:  o.DecodeWorkers,
		interval: o.Interval,
		clock:    o.Clock,
		hub:      newHub(o.SubscriberBuffer, o.Policy, o.Obs),
		reg:      o.Obs,
		idx:      m.RankIndex(o.Rank),
		complete: m.Complete,
		ctrl:     make(chan ctrlMsg),
		closeCh:  make(chan struct{}),
		done:     make(chan struct{}),

		mRate:     o.Obs.Gauge("feed.rate.milli"),
		mReleased: o.Obs.Counter("feed.released"),
		mSeeks:    o.Obs.Counter("feed.seeks"),
		mJitter:   o.Obs.Histogram("feed.release.jitter.ns", obs.LatencyBounds()),
	}
	f.setRateStat(o.Rate)
	f.aEpoch.Store(int64(o.StartEpoch))
	f.aPaused.Store(o.Paused)

	cur, err := f.openAt(o.StartEpoch)
	if err != nil {
		return nil, err
	}
	go f.pump(cur, o)
	return f, nil
}

// openAt opens the decode pipeline positioned at an epoch boundary.
func (f *Feed) openAt(epoch int) (iterHandle, error) {
	o := core.DecoderOptions{DecodeWorkers: f.workers, Obs: f.reg}
	it, blob, err := store.SeekRankIter(f.st, f.rank, epoch, o)
	if err != nil {
		return iterHandle{}, err
	}
	return iterHandle{it: it, blob: blob}, nil
}

// cutClock is the recorded clock at an epoch's starting boundary: 0 at the
// record head, the preceding cut's flush clock after it.
func (f *Feed) cutClock(epoch int) uint64 {
	if epoch <= 0 || epoch > len(f.idx) {
		return 0
	}
	return f.idx[epoch-1].Clock
}

// Epochs reports the rank's committed epoch-boundary count: valid Seek
// targets are 0 through Epochs().
func (f *Feed) Epochs() int { return len(f.idx) }

// Rank reports which rank's record the feed streams.
func (f *Feed) Rank() int { return f.rank }

// Subscribe attaches a new consumer to the release stream.
func (f *Feed) Subscribe() (*Subscription, error) { return f.hub.subscribe() }

// Pause freezes the timeline: no further releases until Resume. Position
// is kept exactly, mid-epoch included.
func (f *Feed) Pause() error { return f.control(ctrlMsg{op: opPause}) }

// Resume unfreezes a paused feed, re-anchoring the timeline at the
// current clock reading.
func (f *Feed) Resume() error { return f.control(ctrlMsg{op: opResume}) }

// SetRate changes the sim rate mid-stream without losing position: record
// time already played stays played, and the remaining wait of an in-flight
// deadline is rescaled to the new rate.
func (f *Feed) SetRate(rate float64) error {
	if rate <= 0 || math.IsNaN(rate) {
		return fmt.Errorf("feed: rate must be positive, got %v", rate)
	}
	return f.control(ctrlMsg{op: opRate, rate: rate})
}

// Seek jumps playback to an epoch boundary (0 = record head, k = just past
// the k-th committed cut) by reopening the decode pipeline there — a jump
// through the store's chunk index on seekable backends, never a rescan of
// played frames. Subscribers see a KindSeek event at the discontinuity;
// the timeline re-anchors so the target epoch starts playing immediately.
func (f *Feed) Seek(epoch int) error {
	if epoch < 0 {
		return fmt.Errorf("feed: negative seek epoch %d", epoch)
	}
	return f.control(ctrlMsg{op: opSeek, epoch: epoch})
}

// control hands one message to the pump and waits for its reply. Controls
// apply between releases; under the Block policy a stalled subscriber can
// therefore delay them.
func (f *Feed) control(msg ctrlMsg) error {
	msg.reply = make(chan error, 1)
	select {
	case f.ctrl <- msg:
	case <-f.done:
		return ErrFeedClosed
	}
	select {
	case err := <-msg.reply:
		return err
	case <-f.done:
		return ErrFeedClosed
	}
}

// Err returns the terminal stream error, if the record ended in damage.
func (f *Feed) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

func (f *Feed) setErr(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// Close stops the pump, closes the decode pipeline, and ends every
// subscription (buffered events remain drainable). It returns the terminal
// stream error, if any.
func (f *Feed) Close() error {
	f.closing.Do(func() {
		close(f.closeCh)
		f.hub.close()
	})
	<-f.done
	return f.Err()
}

// Stats is a point-in-time snapshot of the feed's dials and counters.
type Stats struct {
	Rank         int
	Rate         float64 // +Inf = max
	Paused       bool
	Epoch        int // epoch currently playing (or last seek target)
	Epochs       int // committed epoch boundaries in the record
	Released     uint64
	Subscribers  int64
	Drops        uint64
	Backpressure uint64
}

// Stats returns the current snapshot of this feed's own counts.
func (f *Feed) Stats() Stats {
	subs, drops, blocked := f.hub.stats()
	return Stats{
		Rank:         f.rank,
		Rate:         math.Float64frombits(f.aRate.Load()),
		Paused:       f.aPaused.Load(),
		Epoch:        int(f.aEpoch.Load()),
		Epochs:       len(f.idx),
		Released:     f.aReleased.Load(),
		Subscribers:  subs,
		Drops:        drops,
		Backpressure: blocked,
	}
}

func (f *Feed) setRateStat(r float64) {
	f.aRate.Store(math.Float64bits(r))
	milli := int64(math.MaxInt64)
	if !math.IsInf(r, 1) {
		milli = int64(r * 1000)
	}
	f.mRate.Set(milli)
}

// pacer maps recorded clock ticks onto the feed clock. played is the
// record time (clock ticks × interval) already released since baseClock;
// anchor is the feed-clock instant that corresponds to played. The mapped
// deadline of a mark at clock C is anchor + (recTime(C) - played) / rate.
type pacer struct {
	interval  time.Duration
	rate      float64
	paused    bool
	baseClock uint64
	played    time.Duration
	anchor    time.Time
	anchored  bool
}

// recTime maps a recorded clock onto the record-time axis.
func (p *pacer) recTime(clock uint64) time.Duration {
	if clock <= p.baseClock {
		return 0
	}
	d := clock - p.baseClock
	if max := uint64(math.MaxInt64) / uint64(p.interval); d > max {
		d = max
	}
	return time.Duration(d) * p.interval
}

// deadline returns the mapped release instant for a mark at clock,
// anchoring the timeline at now on first use.
func (p *pacer) deadline(clock uint64, now time.Time) time.Time {
	if !p.anchored {
		p.anchor, p.anchored = now, true
	}
	rem := p.recTime(clock) - p.played
	if rem <= 0 || math.IsInf(p.rate, 1) {
		return now
	}
	return p.anchor.Add(time.Duration(float64(rem) / p.rate))
}

// fire advances the played position to clock, anchored at the release
// instant, so the next epoch's deadline chains off this one without drift.
func (p *pacer) fire(clock uint64, at time.Time) {
	p.played = p.recTime(clock)
	p.anchor, p.anchored = at, true
}

// progress folds feed time elapsed since anchor into played — the common
// prefix of pause and rate changes, so neither loses mid-epoch position.
func (p *pacer) progress(now time.Time) {
	if !p.anchored || p.paused {
		return
	}
	if elapsed := now.Sub(p.anchor); elapsed > 0 && !math.IsInf(p.rate, 1) {
		p.played += time.Duration(float64(elapsed) * p.rate)
	}
	p.anchor = now
}

func (p *pacer) pause(now time.Time) {
	p.progress(now)
	p.paused = true
}

func (p *pacer) resume(now time.Time) {
	if p.paused {
		p.paused = false
		p.anchor = now
	}
}

func (p *pacer) setRate(rate float64, now time.Time) {
	p.progress(now)
	p.rate = rate
}

// reset restarts the timeline at a new base clock (seek): nothing played,
// re-anchor on the next deadline.
func (p *pacer) reset(baseClock uint64) {
	p.baseClock = baseClock
	p.played = 0
	p.anchored = false
}

// pump statuses for paced waits and control application.
const (
	paceOK = iota
	paceReseek
	paceClosed
)

// pump is the feed's single goroutine: it owns the decode pipeline, the
// pacer, and the release sequence.
func (f *Feed) pump(cur iterHandle, o Options) {
	defer close(f.done)
	defer func() { cur.close() }()
	epoch := o.StartEpoch
	pc := &pacer{interval: f.interval, rate: o.Rate, paused: o.Paused, baseClock: f.cutClock(epoch)}
	var seq uint64

	for {
		switch f.idleCtrl(pc, &cur, &seq, &epoch) {
		case paceClosed:
			return
		case paceReseek:
			continue
		}

		fr, err := cur.it.Next()
		if err != nil {
			msg := ""
			if err != io.EOF && !(!f.complete && store.TolerableAtPin(err)) {
				msg = err.Error()
				f.setErr(err)
			}
			f.publish(&seq, Event{Kind: KindEnd, Epoch: epoch, Err: msg, At: f.clock.Now()})
			f.hub.close()
			cur.close()
			f.drainUntilClosed()
			return
		}

		ev := Event{Kind: KindFrame, Frame: fr, Epoch: epoch, At: f.clock.Now()}
		if fr.Flush {
			due, status := f.pace(pc, &cur, &seq, &epoch, fr.FlushClock)
			switch status {
			case paceClosed:
				return
			case paceReseek:
				continue
			}
			now := f.clock.Now()
			if jitter := now.Sub(due); jitter > 0 {
				f.mJitter.Observe(uint64(jitter))
			} else {
				f.mJitter.Observe(0)
			}
			ev = Event{Kind: KindFlush, Frame: fr, Epoch: epoch, Clock: fr.FlushClock, Due: due, At: now}
		}
		f.publish(&seq, ev)
		if fr.Flush {
			epoch++
			f.aEpoch.Store(int64(epoch))
		}
	}
}

// publish stamps the sequence number and fans the event out.
func (f *Feed) publish(seq *uint64, ev Event) {
	ev.Seq = *seq
	*seq++
	f.hub.publish(ev)
	f.aReleased.Add(1)
	f.mReleased.Inc()
}

// pace blocks until the mark's mapped deadline, staying responsive to
// controls and close. It returns the deadline used (for the event's Due)
// and a pace status.
func (f *Feed) pace(pc *pacer, cur *iterHandle, seq *uint64, epoch *int, clock uint64) (time.Time, int) {
	for {
		if pc.paused {
			switch f.blockCtrl(pc, cur, seq, epoch) {
			case paceClosed:
				return time.Time{}, paceClosed
			case paceReseek:
				return time.Time{}, paceReseek
			}
			continue
		}
		now := f.clock.Now()
		due := pc.deadline(clock, now)
		if d := due.Sub(now); d > 0 {
			ch, cancel := f.clock.After(d)
			select {
			case <-ch:
				cancel()
				continue
			case msg := <-f.ctrl:
				cancel()
				if f.applyCtrl(msg, pc, cur, seq, epoch) == paceReseek {
					return time.Time{}, paceReseek
				}
				continue
			case <-f.closeCh:
				cancel()
				return time.Time{}, paceClosed
			}
		}
		pc.fire(clock, due)
		return due, paceOK
	}
}

// idleCtrl drains pending controls without blocking, then blocks only
// while paused.
func (f *Feed) idleCtrl(pc *pacer, cur *iterHandle, seq *uint64, epoch *int) int {
	for {
		select {
		case msg := <-f.ctrl:
			if f.applyCtrl(msg, pc, cur, seq, epoch) == paceReseek {
				return paceReseek
			}
			continue
		case <-f.closeCh:
			return paceClosed
		default:
		}
		if !pc.paused {
			return paceOK
		}
		if st := f.blockCtrl(pc, cur, seq, epoch); st != paceOK {
			return st
		}
	}
}

// blockCtrl waits for one control while the feed is paused.
func (f *Feed) blockCtrl(pc *pacer, cur *iterHandle, seq *uint64, epoch *int) int {
	select {
	case msg := <-f.ctrl:
		return f.applyCtrl(msg, pc, cur, seq, epoch)
	case <-f.closeCh:
		return paceClosed
	}
}

// applyCtrl applies one control message and replies to its sender.
func (f *Feed) applyCtrl(msg ctrlMsg, pc *pacer, cur *iterHandle, seq *uint64, epoch *int) int {
	switch msg.op {
	case opPause:
		pc.pause(f.clock.Now())
		f.aPaused.Store(true)
		msg.reply <- nil
	case opResume:
		pc.resume(f.clock.Now())
		f.aPaused.Store(false)
		msg.reply <- nil
	case opRate:
		pc.setRate(msg.rate, f.clock.Now())
		f.setRateStat(msg.rate)
		msg.reply <- nil
	case opSeek:
		next, err := f.openAt(msg.epoch)
		if err != nil {
			msg.reply <- err
			return paceOK
		}
		cur.close()
		*cur = next
		base := f.cutClock(msg.epoch)
		pc.reset(base)
		*epoch = msg.epoch
		f.aEpoch.Store(int64(msg.epoch))
		f.mSeeks.Inc()
		f.publish(seq, Event{Kind: KindSeek, Epoch: msg.epoch, Clock: base, At: f.clock.Now()})
		msg.reply <- nil
		return paceReseek
	}
	return paceOK
}

// drainUntilClosed keeps answering late controls after the stream ended,
// until Close.
func (f *Feed) drainUntilClosed() {
	for {
		select {
		case msg := <-f.ctrl:
			msg.reply <- ErrFeedClosed
		case <-f.closeCh:
			return
		}
	}
}
