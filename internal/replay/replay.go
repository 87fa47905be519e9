// Package replay implements the replay-mode tool layer (paper §3.6, §4.2
// and the Axiom 1 release rule proved correct in §5).
//
// The Replayer stacks above a manual-mode lamport layer:
//
//	app → replay.Replayer → lamport.Layer (manual) → simmpi.Comm
//
// At every MF call it polls the layer below for completions (which arrive
// in this run's non-deterministic order), holds them in a pool, and
// releases them to the application strictly in the recorded observed order.
// Because message identifiers (rank, clock) are not stored in the record,
// the observed order is reconstructed per Fig. 2's decode box: the chunk's
// live messages are ranked by the Definition 6 reference order and the
// recorded permutation difference is applied.
//
// A receive event e at observed position t (reference rank r) is released
// only when the Axiom 1 conditions hold:
//
//	(i)   clocks of earlier events are already replayed — guaranteed
//	      because releases happen in observed order and each release ticks
//	      the lamport clock via TickReceive;
//	(ii)  enough chunk messages have been received to identify the rank-r
//	      message, and
//	(iii) the candidate's clock is strictly below the local minimum clock
//	      (LMC): the smallest clock any still-missing chunk message could
//	      carry, derived from per-sender FIFO clock monotonicity. (When
//	      every chunk message has arrived the ranks are exact and the LMC
//	      test is unnecessary.)
//
// Epoch enforcement (§3.5): a live message (s, c) belongs to the current
// chunk iff prevFrontier(s) < c ≤ frontier(s), where frontier is the
// chunk's epoch line; messages beyond it wait for a later chunk.
//
// Replay assumes what the record assumed (see DESIGN.md): distinct MF
// callsites must not compete for the same messages (disjoint tags or
// sources), which the paper's workloads satisfy by construction. Within a
// callsite, requests with equal specs are interchangeable: MPI binds
// arriving messages to posted receives in arrival order, so the binding may
// differ between record and replay. The Replayer therefore releases the
// *recorded message* through whichever compatible request slot the
// application is presenting, and keeps polling a slot whose own binding is
// still outstanding (a "ghost") so that its message is harvested later. When
// the application re-posts a receive with the ghost's exact spec, the ghost
// itself is handed back instead of posting another receive below, so the
// set the replayer polls stays as small as the set the application holds.
package replay

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"cdcreplay/internal/callsite"
	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/permdiff"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// ErrDiverged reports that the replayed application issued MF calls that
// are inconsistent with the record — almost always a non-deterministic
// application input rather than a tool bug.
var ErrDiverged = errors.New("replay: application diverged from record")

// ErrExhausted reports an MF call at a callsite whose recorded stream has
// no more events.
var ErrExhausted = errors.New("replay: record exhausted")

// ErrStalled reports that the replay waited longer than the timeout for a
// message the record promises; it carries diagnostic state.
var ErrStalled = errors.New("replay: stalled waiting for recorded message")

// Options configure a Replayer.
type Options struct {
	// Timeout bounds how long a release may wait for its message.
	// Default 30s.
	Timeout time.Duration
	// DisableMFID must match the recorder's setting: all events live in
	// the callsite-0 stream.
	DisableMFID bool
	// LiveAfterExhausted changes what happens when the record runs out —
	// the normal state of a record salvaged from a crashed run. Instead
	// of failing with ErrExhausted, the replayer hands control back to
	// the live application: MF calls at an exhausted (or never-recorded)
	// callsite match messages in this run's natural arrival order, with
	// the lamport clock still ticking. The run up to the crash frontier
	// is exact replay; past it, execution continues non-deterministically
	// like a plain run. Live reports whether and where the handback
	// happened.
	LiveAfterExhausted bool
	// OnRelease, when set, is called for every receive event handed to the
	// application, in the order the application observes them — replayed
	// releases first, live-phase deliveries after. Tests and tracing tools
	// use it to compare observed orders across runs.
	OnRelease func(st simmpi.Status)
	// Obs, when non-nil, receives the replayer's metrics (replay.* names,
	// DESIGN.md §8): match-loop stalls, group wait latency, clock-wait
	// time, and pool depth.
	Obs *obs.Registry
	// CallsiteSkip is added to the frame skip when resolving MF callsites.
	// It lets a tool layer interposed between the application and the
	// replayer (e.g. a re-recording pass in the DST harness) resolve
	// callsites to the application's program counters rather than its own.
	CallsiteSkip int
}

func (o *Options) fill() {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
}

// optimisticDelay is how long a release may stall on the strict Axiom 1
// safety rule before the best available candidate is released
// optimistically. Optimism is *verified*: every release consumes a
// collected message, so when a chunk's releases finish, all of its message
// keys are known and the rank→key assignment is checked to be monotone; a
// wrong guess fails the replay with ErrDiverged instead of silently
// producing a different execution. Optimism is needed for tightly-coupled
// blocking exchanges (halo patterns), where a receiver can never locally
// bound a drifted-behind sender's next clock (the paper's Axiom 1 assumes
// that bound exists). The delay is a race guard: a genuinely wedged
// exchange has nothing in flight, so waiting longer only costs latency,
// while releasing too early risks guessing while the true message is still
// in transit. Records with a sender column never reach it.
const optimisticDelay = 50 * time.Millisecond

// pooled is a completion harvested below but not yet released to the app.
type pooled struct {
	st  simmpi.Status
	req *simmpi.Request
	// seq numbers harvests in order; the pool ascends in it.
	seq uint64
	// taken marks a message staged for release. A stream.collected slot
	// keeps its (source, clock) key so the collection stays sorted until
	// the next compaction; a live call drops taken messages from the pool
	// as soon as it has staged its group.
	taken bool
}

// senderTag keys the robust identification subsequences.
type senderTag struct {
	src int32
	tag int32
}

// Replayer replays one rank's recorded receive order.
type Replayer struct {
	next *lamport.Layer
	opts Options

	streams map[uint64]*stream
	// pool holds harvested completions no stream has collected and no
	// live call staged yet, in harvest order (ascending pooled.seq);
	// harvested is the next sequence number.
	pool      []pooled
	harvested uint64
	// lastSeen tracks, per sender, the largest piggybacked clock harvested
	// so far; FIFO delivery makes it a strict lower bound on every future
	// message's clock — the basis of the LMC rule.
	lastSeen map[int32]uint64
	// outstanding holds every receive posted below (by the app through
	// Irecv, or internally as a probe) whose completion has not been
	// harvested yet. The replayer polls all of them at every MF call:
	// a completion bound to one request may have to be released through a
	// different, spec-equivalent slot. The slice is the Testsome set as is;
	// harvested entries are compacted out in place. Its order is
	// irrelevant: completions are reported in arrival order. Ghost reuse
	// bounds it by the receives the app holds, plus the ghosts of specs the
	// app has not re-posted yet, plus at most one probe per spec.
	outstanding []*simmpi.Request
	// appDone has a key for every outstanding request. The value is true
	// while the request is a ghost: virtually completed for the app, its
	// own binding yet to arrive, and not handed back by Irecv since.
	appDone map[*simmpi.Request]bool
	// specOut counts the outstanding requests per receive spec.
	specOut map[specPair]int
	// ghosts queues each spec's ghosts in the order they were made, for
	// Irecv to hand back oldest first: the oldest tends to sit earliest in
	// the posted queue below, so it binds the next matching message and
	// the app's slot completes through its own binding. Entries
	// harvested since they were queued are dropped lazily when they reach
	// the front.
	ghosts map[specPair][]*simmpi.Request

	// Scratch reused by every MF call: awaitGroup's staged group, the
	// slots a release has used, the index and status results it returns
	// (the lifetime rule on simmpi.MPI), and ensureProbes' uncovered specs.
	staged  []pooled
	used    []bool
	idxs    []int
	sts     []simmpi.Status
	missing []specPair

	// liveNotes records why and where each callsite went live
	// (LiveAfterExhausted mode); non-empty means the crash frontier was
	// crossed.
	liveNotes []string

	// The shared chunk source, chunks pulled ahead for callsites not yet
	// asking, and the latched terminal source state (ErrExhausted after a
	// clean end).
	src     ChunkSource
	pending map[uint64][]*cdcformat.Chunk
	srcErr  error

	stats Stats

	// obs instruments, nil when Options.Obs is nil (no-op calls).
	mReleases    *obs.Counter
	mOptimistic  *obs.Counter
	mLive        *obs.Counter
	mStallPolls  *obs.Counter
	mClockWaitNs *obs.Counter
	mWaitNs      *obs.Histogram
	mPool        *obs.Gauge
	obsReg       *obs.Registry
}

// Stats counts what the replayer did, for observability and tests.
type Stats struct {
	// Released is the number of receive events handed to the application.
	Released uint64
	// UnmatchedConsumed is the number of forced failed-test results.
	UnmatchedConsumed uint64
	// OptimisticReleases counts releases that bypassed the strict Axiom 1
	// rule (paper-faithful format only; always verified at chunk end).
	OptimisticReleases uint64
	// ProbesPosted counts internal receives posted because a spec the
	// application waits on had no receive outstanding below, so the next
	// message of that spec had nothing to bind to. Ghost reuse makes this
	// the way a slot whose own message was reported through another slot
	// gets a receive again; probes are the only receives the replayer
	// posts beyond the application's.
	ProbesPosted uint64
	// ChunksVerified counts completed chunks that passed the monotone
	// rank→key check.
	ChunksVerified uint64
	// LiveReleases counts receive events delivered after the record was
	// exhausted (LiveAfterExhausted mode), in natural arrival order.
	LiveReleases uint64
}

var _ simmpi.MPI = (*Replayer)(nil)

// CallsiteMeta is the per-callsite summary a streaming replay needs up
// front: how many matched events the record holds (for Verify) and which
// chunk ordinal each boundary-inversion exception message is pinned to
// (collect cannot judge exception membership by epoch window alone, and the
// pinning chunk may stream in long after the message arrives).
type CallsiteMeta struct {
	Chunks   int
	Events   uint64
	ExcChunk map[tables.MatchedEntry]int
}

// RecordMeta is the prescan summary of one rank's record: everything the
// replayer must know about chunks it has not streamed yet. ScanRecord
// builds it in one bounded-memory pass.
type RecordMeta struct {
	Names     map[uint64]string
	Callsites map[uint64]*CallsiteMeta
}

// ScanRecord streams a record once and summarizes it into a RecordMeta.
// The pass keeps only counters and the (rare) exception keys — not the
// chunk tables — so a record of any size prescans in bounded memory. The
// iterator is closed when the scan returns. On a decode failure the meta
// summarizing the intact prefix is returned alongside the error, so a
// caller that can forgive the damage (a store's epoch pin) keeps the
// prefix.
func ScanRecord(it *core.RecordIter) (*RecordMeta, error) {
	defer it.Close() //cdc:allow(errsink) read-side close; decode errors surface from Next
	m := &RecordMeta{Callsites: make(map[uint64]*CallsiteMeta)}
	for {
		f, err := it.Next()
		m.Names = it.Names()
		if err == io.EOF {
			return m, nil
		}
		if err != nil {
			return m, err
		}
		if f.Chunk == nil {
			continue
		}
		cm := m.Callsites[f.Chunk.Callsite]
		if cm == nil {
			cm = &CallsiteMeta{}
			m.Callsites[f.Chunk.Callsite] = cm
		}
		cm.Events += f.Chunk.NumMatched
		for _, e := range f.Chunk.Exceptions {
			if cm.ExcChunk == nil {
				cm.ExcChunk = make(map[tables.MatchedEntry]int)
			}
			e.Tag = 0 // keyed by (rank, clock) only
			cm.ExcChunk[e] = cm.Chunks
		}
		cm.Chunks++
	}
}

// ChunkSource feeds a streaming replay chunks in record order. Next returns
// io.EOF after the last chunk; Chunk.Callsite routes each one to its
// stream. Sources need not be safe for concurrent use — the replayer pulls
// from application goroutine context, one chunk at a time.
type ChunkSource interface {
	Next() (*cdcformat.Chunk, error)
	Close() error
}

// iterSource adapts a RecordIter into a ChunkSource by skipping the
// non-chunk frames. Close also closes blob, the bytes under the iterator,
// when there is one.
type iterSource struct {
	it   *core.RecordIter
	blob io.Closer
}

func (s iterSource) Next() (*cdcformat.Chunk, error) {
	for {
		f, err := s.it.Next()
		if err != nil {
			return nil, err
		}
		if f.Chunk != nil {
			return f.Chunk, nil
		}
	}
}

func (s iterSource) Close() error {
	err := s.it.Close()
	if s.blob != nil {
		err = errors.Join(err, s.blob.Close())
	}
	return err
}

// NewStream creates a Replayer that pulls chunks from src as replay
// progresses instead of materializing the record: with a pooled decode
// behind src (core.OpenRecordSegments), decoded chunks arrive a bounded
// prefetch window ahead of the consumption frontier and the whole record
// is never resident at once. meta comes from a ScanRecord prescan of the
// same record (the prescan pass may — and with a store, should — run
// through the parallel decoder too).
//
// The replayer owns src and closes it in Close. Chunks for a callsite that
// outpace that callsite's consumption are buffered pending; lockstep
// callsites keep that buffer near the prefetch depth.
func NewStream(next *lamport.Layer, meta *RecordMeta, src ChunkSource, opts Options) *Replayer {
	opts.fill()
	reg := opts.Obs
	rp := &Replayer{
		next:         next,
		opts:         opts,
		streams:      make(map[uint64]*stream),
		lastSeen:     make(map[int32]uint64),
		appDone:      make(map[*simmpi.Request]bool),
		specOut:      make(map[specPair]int),
		ghosts:       make(map[specPair][]*simmpi.Request),
		src:          src,
		pending:      make(map[uint64][]*cdcformat.Chunk),
		obsReg:       reg,
		mReleases:    reg.Counter("replay.releases"),
		mOptimistic:  reg.Counter("replay.optimistic"),
		mLive:        reg.Counter("replay.live.releases"),
		mStallPolls:  reg.Counter("replay.stall.polls"),
		mClockWaitNs: reg.Counter("replay.clockwait.ns"),
		mWaitNs:      reg.Histogram("replay.wait.ns", obs.LatencyBounds()),
		mPool:        reg.Gauge("replay.pool.depth"),
	}
	for cs, cm := range meta.Callsites {
		name := meta.Names[cs]
		if name == "" {
			name = fmt.Sprintf("callsite %#x", cs)
		}
		cs := cs
		st := &stream{name: name, total: cm.Events, excChunk: cm.ExcChunk}
		st.fetch = func() (*cdcformat.Chunk, error) { return rp.pullChunk(cs) }
		rp.streams[cs] = st
	}
	return rp
}

// Open runs both passes of a streaming replay over one record: open is
// called once for the ScanRecord prescan and once more for the chunk feed
// of NewStream, and must yield the same record both times. Alongside each
// iterator open may return the blob under it (nil when there is none to
// release), as store.OpenRankIter does; the prescan's blob is closed when
// the prescan ends, the feed's by the Replayer's Close.
func Open(next *lamport.Layer, open func() (*core.RecordIter, io.Closer, error), opts Options) (*Replayer, error) {
	it, blob, err := open()
	if err != nil {
		return nil, err
	}
	meta, err := ScanRecord(it)
	if blob != nil {
		err = errors.Join(err, blob.Close())
	}
	if err != nil {
		return nil, fmt.Errorf("prescan: %w", err)
	}
	it, blob, err = open()
	if err != nil {
		return nil, err
	}
	return NewStream(next, meta, iterSource{it: it, blob: blob}, opts), nil
}

// RecordBytes is an Open source over an in-memory record, decoded serially.
func RecordBytes(data []byte) func() (*core.RecordIter, io.Closer, error) {
	return func() (*core.RecordIter, io.Closer, error) {
		it, err := core.OpenRecord(bytes.NewReader(data))
		return it, nil, err
	}
}

// pullChunk returns callsite cs's next chunk, demultiplexing the shared
// source: chunks for other callsites pulled along the way wait in pending.
func (rp *Replayer) pullChunk(cs uint64) (*cdcformat.Chunk, error) {
	for {
		if q := rp.pending[cs]; len(q) > 0 {
			c := q[0]
			rp.pending[cs] = q[1:]
			return c, nil
		}
		if rp.srcErr != nil {
			return nil, rp.srcErr
		}
		c, err := rp.src.Next()
		if err != nil {
			if err == io.EOF {
				err = ErrExhausted
			}
			rp.srcErr = err
			continue
		}
		if c.Callsite == cs {
			return c, nil
		}
		rp.pending[c.Callsite] = append(rp.pending[c.Callsite], c)
	}
}

// Close releases the chunk source (and with it the decode pipeline's
// workers).
func (rp *Replayer) Close() error { return rp.src.Close() }

// specPair is a receive spec observed at a callsite.
type specPair struct{ src, tag int }

func (sp specPair) accepts(source, tag int) bool {
	return (sp.src == simmpi.AnySource || sp.src == source) &&
		(sp.tag == simmpi.AnyTag || sp.tag == tag)
}

// stream is the replay cursor over one callsite's chunks.
type stream struct {
	name string
	// fetch returns the callsite's next chunk in record order, ErrExhausted
	// past the last one, or the decode failure. It pulls from the shared
	// ChunkSource, so a chunk's tables are decoded no earlier than the
	// prefetch window ahead of the consumption frontier.
	fetch func() (*cdcformat.Chunk, error)
	ci    int // chunks fetched so far; the loaded chunk's ordinal is ci-1
	// total and seen count matched events: total across the whole recorded
	// stream (from the record or the prescan), seen in fetched chunks.
	// Verify reports total-seen plus the loaded chunk's unreplayed tail
	// without needing the unfetched chunks in memory.
	total  uint64
	seen   uint64
	loaded bool
	err    error
	// live marks the callsite as past its recorded events: MF calls pass
	// messages through in natural arrival order (LiveAfterExhausted).
	live bool

	// specs are the receive specs seen in MF calls at this callsite; a
	// pooled message may only be collected here if some spec accepts it.
	// This keeps callsites with disjoint traffic (different tags or
	// sources) from stealing each other's messages even when their epoch
	// windows overlap numerically.
	specs []specPair
	// scanned is the collect watermark: every pooled message with a lower
	// seq was examined under the current window, exception pins and specs
	// and found not to belong. load and a newly learned spec reset it.
	scanned uint64

	// Current-chunk state.
	n            int
	refAtObs     []int
	withNext     map[int64]bool
	unmatched    map[int64]uint64
	prevFrontier map[int32]uint64
	frontier     map[int32]uint64
	// tied maps a colliding clock to its recorded multiplicity; seenTied
	// counts how many messages with that clock have arrived so far.
	tied     map[uint64]uint64
	seenTied map[uint64]uint64
	// senders/tags are the chunk's reference-order sender and tag columns,
	// when the record carries the robustness extension. With them, the
	// message for reference rank R is exactly the j-th chunk message to
	// arrive in the (senders[R], tags[R]) subsequence, where j counts
	// ranks below R with the same pair (per-sender arrival order equals
	// per-sender clock order by FIFO, and any subsequence of it is still
	// ordered): identification is immediate and the Axiom 1 machinery
	// (safe, optimism) is bypassed entirely. Identification is per
	// (sender, tag) rather than per sender alone because a stream's
	// spec filter admits or rejects pooled messages whole-tag at a time,
	// so a (sender, tag) subsequence can never have spec-induced gaps.
	// Note the j-th arrival, not the next unreleased one — the
	// application can complete same-sender messages out of order
	// (paper Fig. 3).
	senders []int32
	tags    []int32
	// perKeyIndex[R] is j above; arrivals collects per-(sender, tag)
	// arrival clocks in order.
	perKeyIndex []int
	arrivals    map[senderTag][]uint64
	// excChunk pins boundary-inversion exception messages to their chunk
	// index, overriding window membership (see cdcformat.Chunk.Exceptions).
	excChunk map[tables.MatchedEntry]int
	// collected holds the chunk's collected messages sorted by (clock,
	// rank); released ones stay as taken slots (dead counts them) until
	// they make up half the slice and compact drops them.
	collected []pooled
	dead      int
	collMax   map[int32]uint64
	released  []bool // by reference rank
	// releasedKey remembers each released rank's message key for the
	// end-of-chunk monotonicity verification of optimistic releases.
	releasedKey []tables.MatchedEntry
	nReleased   int
	t           int // next observed index
}

// load decodes the next chunk's tables.
func (s *stream) load() error {
	if s.prevFrontier == nil {
		s.prevFrontier = make(map[int32]uint64)
	}
	if s.loaded {
		for r, c := range s.frontier {
			if c > s.prevFrontier[r] {
				s.prevFrontier[r] = c
			}
		}
		s.loaded = false
	}
	c, err := s.fetch()
	if err != nil {
		if errors.Is(err, ErrExhausted) {
			return ErrExhausted
		}
		return fmt.Errorf("replay: %s chunk %d: %w", s.name, s.ci, err)
	}
	s.ci++
	s.seen += c.NumMatched
	s.loaded = true
	s.n = int(c.NumMatched)
	obs, err := permdiff.Decode(s.n, c.Moves)
	if err != nil {
		return fmt.Errorf("replay: %s chunk %d: %w", s.name, s.ci-1, err)
	}
	s.refAtObs = obs
	s.withNext = make(map[int64]bool, len(c.WithNext))
	for _, i := range c.WithNext {
		s.withNext[i] = true
	}
	s.unmatched = make(map[int64]uint64, len(c.Unmatched))
	for _, u := range c.Unmatched {
		s.unmatched[u.Index] += u.Count
	}
	s.frontier = make(map[int32]uint64, len(c.EpochLine))
	for _, e := range c.EpochLine {
		s.frontier[e.Rank] = e.Clock
	}
	s.tied = make(map[uint64]uint64, len(c.TiedClocks))
	s.seenTied = make(map[uint64]uint64, len(c.TiedClocks))
	for _, t := range c.TiedClocks {
		s.tied[t.Clock] = t.Count
	}
	s.senders = c.Senders
	s.tags = c.Tags
	s.perKeyIndex = nil
	s.arrivals = nil
	if len(s.senders) > 0 && len(s.tags) == len(s.senders) {
		s.perKeyIndex = make([]int, s.n)
		counts := make(map[senderTag]int)
		for r, src := range s.senders {
			key := senderTag{src, s.tags[r]}
			s.perKeyIndex[r] = counts[key]
			counts[key]++
		}
		// Sized once per chunk, not grown per message.
		s.arrivals = make(map[senderTag][]uint64, len(counts))
		for r, src := range s.senders {
			if key := (senderTag{src, s.tags[r]}); s.arrivals[key] == nil {
				s.arrivals[key] = make([]uint64, 0, counts[key])
			}
		}
	} else {
		s.senders = nil
		s.tags = nil
	}
	s.collected = s.collected[:0]
	s.dead = 0
	s.scanned = 0
	s.collMax = make(map[int32]uint64)
	s.released = make([]bool, s.n)
	s.releasedKey = make([]tables.MatchedEntry, s.n)
	s.nReleased = 0
	s.t = 0
	return nil
}

// verifyChunk checks, once every event of the chunk has been released,
// that the rank→message assignment is a correct sort: keys must ascend
// with rank. A strict (Axiom 1) release can never violate this; an
// optimistic release that guessed wrong is caught here.
func (s *stream) verifyChunk() error {
	if s.nReleased < s.n {
		return nil
	}
	for r := 1; r < s.n; r++ {
		if !tables.Less(s.releasedKey[r-1], s.releasedKey[r]) {
			return fmt.Errorf("%w: callsite %s chunk %d: optimistic release mis-ordered ranks %d (%d,%d) and %d (%d,%d)",
				ErrDiverged, s.name, s.ci-1,
				r-1, s.releasedKey[r-1].Rank, s.releasedKey[r-1].Clock,
				r, s.releasedKey[r].Rank, s.releasedKey[r].Clock)
		}
	}
	return nil
}

// chunkDone reports whether every event and trailing unmatched run of the
// current chunk has been consumed.
func (s *stream) chunkDone() bool {
	return s.loaded && s.t >= s.n && s.unmatched[int64(s.n)] == 0
}

// ensure makes sure a chunk with remaining work is loaded, advancing past
// finished chunks (load merges each finished chunk's frontier).
func (s *stream) ensure() error {
	for {
		if s.loaded && !s.chunkDone() {
			return nil
		}
		if err := s.load(); err != nil {
			return err
		}
	}
}

// inWindow reports whether a live message belongs to the current chunk.
func (s *stream) inWindow(src int32, clock uint64) bool {
	f, ok := s.frontier[src]
	if !ok {
		return false
	}
	return clock > s.prevFrontier[src] && clock <= f
}

// learnSpecs remembers the receive specs presented at this callsite.
func (s *stream) learnSpecs(reqs []*simmpi.Request) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		src, tag := r.Spec()
		sp := specPair{src, tag}
		known := false
		for _, have := range s.specs {
			if have == sp {
				known = true
				break
			}
		}
		if !known {
			s.specs = append(s.specs, sp)
			s.scanned = 0
		}
	}
}

func (s *stream) specAccepts(source, tag int) bool {
	for _, sp := range s.specs {
		if sp.accepts(source, tag) {
			return true
		}
	}
	return false
}

// member reports whether a pooled message belongs to the loaded chunk:
// some learned spec must accept it, and then a boundary-inversion
// exception belongs to the chunk it is pinned to, anything else to the
// chunk whose epoch window holds its clock.
func (s *stream) member(p *pooled) bool {
	if !s.specAccepts(p.st.Source, p.st.Tag) {
		return false
	}
	if ci, isExc := s.excChunk[tables.MatchedEntry{Rank: int32(p.st.Source), Clock: p.st.Clock}]; isExc {
		return ci == s.ci-1
	}
	return s.inWindow(int32(p.st.Source), p.st.Clock)
}

// afterCollect, when set (by tests), runs at the end of every collect.
var afterCollect func(s *stream, rp *Replayer)

// collect moves current-chunk messages from the global pool into the
// stream's sorted collection. Only messages harvested since the stream's
// watermark are examined: the ones below it were already found not to
// belong, and nothing that decides membership has changed since.
func (s *stream) collect(rp *Replayer) {
	if !s.loaded {
		return
	}
	from := len(rp.pool)
	for from > 0 && rp.pool[from-1].seq >= s.scanned {
		from--
	}
	kept := rp.pool[:from]
	for i := from; i < len(rp.pool); i++ {
		if p := &rp.pool[i]; s.member(p) {
			s.insert(*p)
		} else {
			kept = append(kept, *p)
		}
	}
	rp.mPool.Add(int64(len(kept) - len(rp.pool)))
	rp.pool = kept
	s.scanned = rp.harvested
	if held := s.held(); s.err == nil && held+s.nReleased > s.n {
		s.err = fmt.Errorf("%w: callsite %s chunk %d holds %d messages but records %d — "+
			"same-spec receives are being matched through multiple MF callsites",
			ErrDiverged, s.name, s.ci-1, held+s.nReleased, s.n)
	}
	if afterCollect != nil {
		afterCollect(s, rp)
	}
}

// held is the number of collected messages not yet released.
func (s *stream) held() int { return len(s.collected) - s.dead }

func (s *stream) insert(p pooled) {
	key := tables.MatchedEntry{Rank: int32(p.st.Source), Clock: p.st.Clock}
	i := sort.Search(len(s.collected), func(i int) bool {
		e := s.collected[i]
		return !tables.Less(tables.MatchedEntry{Rank: int32(e.st.Source), Clock: e.st.Clock}, key)
	})
	s.collected = append(s.collected, pooled{})
	copy(s.collected[i+1:], s.collected[i:])
	s.collected[i] = p
	if p.st.Clock > s.collMax[int32(p.st.Source)] {
		s.collMax[int32(p.st.Source)] = p.st.Clock
	}
	if _, isTied := s.tied[p.st.Clock]; isTied {
		s.seenTied[p.st.Clock]++
	}
	if s.arrivals != nil {
		key := senderTag{int32(p.st.Source), int32(p.st.Tag)}
		s.arrivals[key] = append(s.arrivals[key], p.st.Clock)
	}
}

// lmc computes the local minimum clock: the smallest clock a still-missing
// message of the current chunk could carry.
func (s *stream) lmc(rp *Replayer) uint64 {
	lmc := uint64(math.MaxUint64)
	for src, f := range s.frontier {
		if s.collMax[src] >= f {
			continue // this sender's chunk messages all arrived
		}
		if c := rp.lastSeen[src] + 1; c < lmc {
			lmc = c
		}
	}
	return lmc
}

// allCollected reports whether every not-yet-released chunk message has
// been harvested.
func (s *stream) allCollected() bool {
	return s.held() == s.n-s.nReleased
}

// candidateAt returns the index in collected of the message for observed
// position tt, or -1 if it cannot be identified safely yet (Axiom 1).
//
// The safety rule refines the paper's scalar LMC with the Definition 6
// tie-break: a still-missing message from sender s carries a clock of at
// least lastSeen(s)+1 (per-sender FIFO), so its smallest possible
// reference key is (lastSeen(s)+1, s). The candidate is safe when its own
// key (clock, src) precedes every such bound — strictly more permissive
// than requiring clock < LMC, and necessary to make tightly-coupled
// exchanges (halo patterns) progress, while remaining sound.
func (s *stream) candidateAt(rp *Replayer, tt int) int {
	if len(s.senders) > 0 {
		// Exact mode: the rank-R message is the j-th arrival of the
		// (senders[R], tags[R]) subsequence. Per-sender arrivals come in
		// clock order (FIFO) — and so does any tag-restricted subsequence
		// of them — so the j-th arrival clock identifies it even when the
		// application completes same-sender messages out of order
		// (Fig. 3) or a callsite serves several tags.
		r := s.refAtObs[tt]
		key := senderTag{s.senders[r], s.tags[r]}
		j := s.perKeyIndex[r]
		clocks := s.arrivals[key]
		if j >= len(clocks) {
			return -1
		}
		want := clocks[j]
		for k := range s.collected {
			if c := &s.collected[k]; !c.taken && int32(c.st.Source) == key.src && int32(c.st.Tag) == key.tag &&
				c.st.Clock == want {
				return k
			}
		}
		return -1 // already staged for another position (impossible) or gone
	}
	k := s.candidateIndex(tt)
	if k < 0 {
		return -1
	}
	if s.allCollected() || s.safe(rp, &s.collected[k]) {
		return k
	}
	return -1
}

// candidateIndex locates the best guess for observed position tt among the
// collected messages, ignoring the Axiom 1 safety conditions: the k-th
// unreleased one, where k counts the unreleased ranks below tt's rank.
func (s *stream) candidateIndex(tt int) int {
	r := s.refAtObs[tt]
	k := r
	for j := 0; j < r; j++ {
		if s.released[j] {
			k--
		}
	}
	for i := range s.collected {
		if s.collected[i].taken {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

// safe reports whether no still-missing chunk message can precede cand in
// the reference order. A missing message from sender s carries a clock of
// at least lastSeen(s)+1; it precedes cand iff its smallest possible key
// (bound, s) precedes (cand.clock, cand.src). A tie at exactly cand's
// clock is additionally impossible unless the record lists that clock as
// tied (chunk TiedClocks) — the record run saw the same message multiset,
// so an unlisted collision cannot occur in the replay run either.
func (s *stream) safe(rp *Replayer, cand *pooled) bool {
	cc, cs := cand.st.Clock, int32(cand.st.Source)
	for src, f := range s.frontier {
		if s.collMax[src] >= f {
			continue // sender's chunk messages all arrived
		}
		bound := rp.lastSeen[src] + 1
		if bound > cc {
			continue
		}
		if bound < cc {
			return false
		}
		// bound == cc: a colliding clock must be a recorded tie with
		// copies still missing, and even then only matters if the rival
		// sender sorts first.
		if s.tieUnresolved(cc) && src < cs {
			return false
		}
	}
	return true
}

// tieUnresolved reports whether clock cc is a recorded collision with
// copies that have not arrived yet.
func (s *stream) tieUnresolved(cc uint64) bool {
	want, isTied := s.tied[cc]
	return isTied && s.seenTied[cc] < want
}

// takeAt releases collected[k] as the message for observed position tt.
// The slot stays behind as a taken key; once taken slots are half the
// collection they are compacted out in one pass, so a release costs O(1)
// amortized wherever in the sorted collection its message sits.
func (s *stream) takeAt(k, tt int) pooled {
	r := s.refAtObs[tt]
	s.released[r] = true
	s.nReleased++
	out := s.collected[k]
	s.releasedKey[r] = tables.MatchedEntry{Rank: int32(out.st.Source), Clock: out.st.Clock}
	s.collected[k] = pooled{st: simmpi.Status{Source: out.st.Source, Clock: out.st.Clock}, taken: true}
	s.dead++
	if 2*s.dead > len(s.collected) {
		s.collected = slices.DeleteFunc(s.collected, func(c pooled) bool { return c.taken })
		s.dead = 0
	}
	return out
}

// groupLen returns the size of the with_next group starting at the current
// observed index.
func (s *stream) groupLen() int {
	g := 1
	for s.t+g < s.n && s.withNext[int64(s.t+g-1)] {
		g++
	}
	return g
}

// consumeUnmatched consumes one failed-test occurrence if the record has
// one pending at the current position, returning true if this MF call must
// report "no match".
func (s *stream) consumeUnmatched() bool {
	if s.unmatched[s.cursorIndex()] > 0 {
		s.unmatched[s.cursorIndex()]--
		return true
	}
	return false
}

func (s *stream) unmatchedPending() bool { return s.unmatched[s.cursorIndex()] > 0 }

func (s *stream) cursorIndex() int64 {
	if s.t >= s.n {
		return int64(s.n)
	}
	return int64(s.t)
}

// --- Replayer: MPI surface -----------------------------------------------

// Rank returns the wrapped endpoint's rank.
func (rp *Replayer) Rank() int { return rp.next.Rank() }

// Size returns the world size.
func (rp *Replayer) Size() int { return rp.next.Size() }

// Send passes through; the lamport layer attaches the replayed clock.
func (rp *Replayer) Send(dst, tag int, data []byte) error {
	return rp.next.Send(dst, tag, data)
}

// Irecv hands back the oldest ghost with exactly this spec, or else posts
// a receive below and registers it for global polling. A ghost is as good
// as a fresh receive: it is outstanding below with the same spec, the
// message it binds to is harvested into the pool like any other, and
// receives with identical specs are indistinguishable to the application
// (simmpi.Request.Spec). What the application observes comes
// from the record and slotFor, never from which request a message
// bound to below. The returned request may therefore be one this method
// returned before, once it completed for the application; as in MPI, a
// completed request must not be used again.
func (rp *Replayer) Irecv(src, tag int) (*simmpi.Request, error) {
	if req := rp.reuseGhost(specPair{src, tag}); req != nil {
		return req, nil
	}
	req, err := rp.next.Irecv(src, tag)
	if err != nil {
		return nil, err
	}
	rp.post(req)
	return req, nil
}

// post adds a receive just posted below to the outstanding set.
func (rp *Replayer) post(req *simmpi.Request) {
	rp.outstanding = append(rp.outstanding, req)
	rp.appDone[req] = false
	src, tag := req.Spec()
	rp.specOut[specPair{src, tag}]++
}

// reuseGhost pops sp's oldest ghost that is still outstanding and returns
// it to the application, or returns nil when there is none.
func (rp *Replayer) reuseGhost(sp specPair) *simmpi.Request {
	q := rp.dropHarvestedGhosts(sp)
	if len(q) == 0 {
		return nil
	}
	req := q[0]
	rp.ghosts[sp] = popGhost(q)
	rp.appDone[req] = false
	return req
}

// popGhost drops a ghost queue's front in place, keeping its capacity.
func popGhost(q []*simmpi.Request) []*simmpi.Request {
	n := copy(q, q[1:])
	q[n] = nil
	return q[:n]
}

// dropHarvestedGhosts removes the front entries of sp's ghost queue that
// stopped being ghosts (harvested below), and returns the queue.
func (rp *Replayer) dropHarvestedGhosts(sp specPair) []*simmpi.Request {
	q := rp.ghosts[sp]
	for len(q) > 0 && !rp.appDone[q[0]] {
		q = popGhost(q)
	}
	rp.ghosts[sp] = q
	return q
}

// Barrier passes through (deterministic).
func (rp *Replayer) Barrier() error { return rp.next.Barrier() }

// Allreduce passes through (deterministic).
func (rp *Replayer) Allreduce(v float64, op simmpi.ReduceOp) (float64, error) {
	return rp.next.Allreduce(v, op)
}

// Reduce passes through (deterministic).
func (rp *Replayer) Reduce(v float64, op simmpi.ReduceOp, root int) (float64, error) {
	return rp.next.Reduce(v, op, root)
}

// Bcast passes through (deterministic).
func (rp *Replayer) Bcast(data []byte, root int) ([]byte, error) {
	return rp.next.Bcast(data, root)
}

// Gather passes through (deterministic).
func (rp *Replayer) Gather(v float64, root int) ([]float64, error) {
	return rp.next.Gather(v, root)
}

// Allgather passes through (deterministic).
func (rp *Replayer) Allgather(v float64) ([]float64, error) {
	return rp.next.Allgather(v)
}

// pollBelow harvests completions of every outstanding receive into the
// pool, reporting how many arrived. A poll that harvests nothing costs one
// Testsome over the outstanding slice and allocates nothing.
func (rp *Replayer) pollBelow() (int, error) {
	idxs, sts, err := rp.next.Testsome(rp.outstanding)
	if err != nil || len(idxs) == 0 {
		return 0, err
	}
	for k, i := range idxs {
		req := rp.outstanding[i]
		rp.outstanding[i] = nil
		delete(rp.appDone, req)
		src, tag := req.Spec()
		rp.specOut[specPair{src, tag}]--
		rp.harvest(pooled{st: sts[k], req: req})
	}
	rp.outstanding = slices.DeleteFunc(rp.outstanding, func(r *simmpi.Request) bool { return r == nil })
	return len(idxs), nil
}

// harvest appends a completion to the pool. Completions arrive in arrival
// order, which is the pool's harvest order; release order comes from the
// record's (sender, clock) keys, so it never reaches the app.
func (rp *Replayer) harvest(p pooled) {
	p.seq = rp.harvested
	rp.harvested++
	rp.pool = append(rp.pool, p)
	if src := int32(p.st.Source); p.st.Clock > rp.lastSeen[src] {
		rp.lastSeen[src] = p.st.Clock
	}
	rp.mPool.Add(1)
}

// poll harvests below and collects the stream's chunk messages: one pass
// of a replayed MF call's match loop.
func (rp *Replayer) poll(s *stream) (int, error) {
	arrived, err := rp.pollBelow()
	if err != nil {
		return 0, err
	}
	s.collect(rp)
	return arrived, s.err
}

// ensureProbes posts an internal receive for every distinct spec among
// reqs that currently has no outstanding receive able to harvest the next
// message. This is how the replayer fetches a recorded message whose
// natural slot was consumed by an out-of-recorded-order arrival — the
// re-posting technique PMPI-level replay tools use. Probes are ordinary
// requests in the outstanding set; one per spec is enough, and a probe
// that never matches is as harmless as an application receive that is
// never matched.
func (rp *Replayer) ensureProbes(reqs []*simmpi.Request) error {
	missing := rp.missing[:0]
	for _, r := range reqs {
		if r == nil {
			continue
		}
		src, tag := r.Spec()
		if sp := (specPair{src, tag}); rp.specOut[sp] == 0 && !slices.Contains(missing, sp) {
			missing = append(missing, sp)
		}
	}
	// Post in sorted spec order: posting order decides which request an
	// incoming message binds to when specs overlap, so it must not depend
	// on the order the application happens to list its requests in.
	slices.SortFunc(missing, func(a, b specPair) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.tag, b.tag))
	})
	rp.missing = missing
	for _, sp := range missing {
		probe, err := rp.next.Irecv(sp.src, sp.tag)
		if err != nil {
			return err
		}
		rp.post(probe)
		rp.stats.ProbesPosted++
	}
	return nil
}

// stream returns the record stream for the calling MF callsite. skip is the
// number of frames between this function and the application's MF call.
//
//go:noinline
func (rp *Replayer) stream(skip int) (*stream, error) {
	cs := uint64(0)
	name := "merged"
	if !rp.opts.DisableMFID {
		cs, name = callsite.ID(skip + 1 + rp.opts.CallsiteSkip)
	}
	s, ok := rp.streams[cs]
	if !ok {
		if rp.opts.LiveAfterExhausted {
			// The application reached a callsite the (salvaged) record never
			// saw — code past the crash point. Serve it live from now on.
			s = &stream{name: name}
			rp.goLive(s, "has no recorded stream (past the crash point)")
			rp.streams[cs] = s
			return s, nil
		}
		return nil, fmt.Errorf("%w: no recorded stream for MF callsite %s", ErrDiverged, name)
	}
	return s, nil
}

// goLive switches a callsite to live pass-through and records why.
func (rp *Replayer) goLive(s *stream, why string) {
	s.live = true
	rp.liveNotes = append(rp.liveNotes,
		fmt.Sprintf("callsite %s %s after %d replayed event(s); continuing live", s.name, why, rp.stats.Released))
}

// ensureOrLive advances the stream cursor, converting exhaustion into live
// mode when the option allows it.
func (rp *Replayer) ensureOrLive(s *stream) error {
	if s.live {
		return nil
	}
	err := s.ensure()
	if rp.opts.LiveAfterExhausted && errors.Is(err, ErrExhausted) {
		rp.goLive(s, "exhausted its recorded stream")
		return nil
	}
	return err
}

// Live reports whether the replayer crossed the crash frontier into live
// execution, and where.
func (rp *Replayer) Live() (bool, string) {
	if len(rp.liveNotes) == 0 {
		return false, ""
	}
	return true, strings.Join(rp.liveNotes, "; ")
}

// awaitGroup stages the group an MF call completes, polling below, and
// returns it for release. It stages from one of two sources:
//
//   - a replayed stream: the record's with_next group at the cursor. Each
//     member is staged once Axiom 1 identifies it (identification is never
//     invalidated by later arrivals, so there is no rollback), and the call
//     blocks until the group is whole. A test call first consumes a
//     recorded failed test, returning an empty group.
//   - a live stream (past the record's end): pooled messages in harvest
//     order, as stageLive picks them. The live phase has no record to
//     consult, so natural arrival order is the execution. A test call
//     (wait false) makes one pass and returns an empty group when nothing
//     fits; a wait call blocks until something does.
//
// limit bounds a live group (Test/Testany/Wait/Waitany 1, -1 for no
// bound); ordered (Waitall/Testall) makes the group one message per slot,
// in request order.
func (rp *Replayer) awaitGroup(s *stream, reqs []*simmpi.Request, limit int, ordered, wait bool) ([]pooled, error) {
	if err := rp.ensureOrLive(s); err != nil {
		return nil, err
	}
	g := 0
	if !s.live {
		s.learnSpecs(reqs)
		if !wait {
			if _, err := rp.poll(s); err != nil {
				return nil, err
			}
			if s.consumeUnmatched() {
				rp.stats.UnmatchedConsumed++
				return nil, nil
			}
		} else if s.unmatchedPending() {
			return nil, fmt.Errorf("%w: unmatched tests recorded at a wait call at callsite %s", ErrDiverged, s.name)
		}
		g = s.groupLen()
		if s.t+g > s.n {
			return nil, fmt.Errorf("%w: with_next group at %s[%d] exceeds chunk", ErrDiverged, s.name, s.t)
		}
		for off := 1; off < g; off++ {
			if s.unmatched[int64(s.t+off)] > 0 {
				return nil, fmt.Errorf("%w: unmatched tests recorded inside a with_next group at %s[%d]",
					ErrDiverged, s.name, s.t+off)
			}
		}
	}
	staged := rp.staged[:0]
	var start time.Time
	if rp.mWaitNs != nil {
		start = time.Now() //cdc:allow(nodetermflow) wait latency metric for observability; grants follow the recorded clocks
	}
	// The clock is read lazily: a group staged by its first pass never
	// reads it. stalledSince is the first pass without progress since the
	// last one with progress; the hang-guard deadline starts at the first.
	var stalledSince, deadline time.Time
	// clockWaitStart is set while the stream holds collected-but-unreleasable
	// candidates — time the Axiom 1 clock conditions (not message arrival)
	// are what blocks progress. Only tracked when instrumented.
	var clockWaitStart time.Time
	spins := 0
	// Probes are due on the first pass and after a pass that harvested:
	// only a harvest lowers specOut, so in between ensureProbes would find
	// every spec still covered.
	probesDue := true
	for {
		arrived, err := rp.poll(s)
		if err != nil {
			return nil, err
		}
		progressed := arrived > 0
		probesDue = probesDue || progressed
		if s.live {
			// A live group is whatever fits the call, once anything does.
			staged = rp.stageLive(reqs, limit, ordered)
			g = max(len(staged), 1)
		} else {
			for len(staged) < g {
				k := s.candidateAt(rp, s.t+len(staged))
				if k < 0 {
					break
				}
				staged = append(staged, s.takeAt(k, s.t+len(staged)))
				progressed = true
			}
		}
		if len(staged) == g {
			rp.staged = staged
			if rp.mWaitNs != nil {
				rp.mWaitNs.Observe(uint64(time.Since(start))) //cdc:allow(nodetermflow) wait latency metric for observability; grants follow the recorded clocks
			}
			if !clockWaitStart.IsZero() {
				rp.mClockWaitNs.Add(uint64(time.Since(clockWaitStart))) //cdc:allow(nodetermflow) clock-wait latency metric for observability only
			}
			return staged, nil
		}
		if rp.mClockWaitNs != nil {
			if s.held() > 0 {
				if clockWaitStart.IsZero() {
					clockWaitStart = time.Now() //cdc:allow(nodetermflow) clock-wait latency metric for observability only
				}
			} else if !clockWaitStart.IsZero() {
				rp.mClockWaitNs.Add(uint64(time.Since(clockWaitStart))) //cdc:allow(nodetermflow) clock-wait latency metric for observability only
				clockWaitStart = time.Time{}
			}
		}
		if progressed {
			stalledSince = time.Time{}
		} else {
			rp.mStallPolls.Inc()
			if stalledSince.IsZero() {
				stalledSince = time.Now() //cdc:allow(nodetermflow) optimistic-delay progress stamp and hang-guard start; grants still follow the recorded clocks
				if deadline.IsZero() {
					deadline = stalledSince.Add(rp.opts.Timeout)
				}
			}
			if !s.live && len(s.senders) == 0 && time.Since(stalledSince) > optimisticDelay { //cdc:allow(nodetermflow) optimistic-delay heuristic for live mode; recorded-order grants are unaffected
				// Strict Axiom 1 cannot certify a candidate; release the
				// best guess to keep the system live. The end-of-chunk
				// verification in verifyChunk rejects a wrong guess. A
				// candidate whose clock is a recorded collision with
				// missing copies is never guessed: its tie partners are
				// guaranteed chunk messages, so waiting for them always
				// terminates.
				if k := s.candidateIndex(s.t + len(staged)); k >= 0 &&
					!s.tieUnresolved(s.collected[k].st.Clock) {
					staged = append(staged, s.takeAt(k, s.t+len(staged)))
					rp.stats.OptimisticReleases++
					rp.mOptimistic.Inc()
					stalledSince = time.Time{}
					continue
				}
			}
		}
		if probesDue {
			if err := rp.ensureProbes(reqs); err != nil {
				return nil, err
			}
			probesDue = false
		}
		if s.live && !wait {
			return nil, nil
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
		if spins%1024 == 0 && !deadline.IsZero() && time.Now().After(deadline) { //cdc:allow(nodetermflow) stall detection deadline; grant order is driven by the recorded clocks
			return nil, rp.stallError(s, len(staged), g)
		}
	}
}

// stageLive picks, in harvest order, the pooled messages a live call
// completes: each one some free slot of reqs accepts (slotFor), up to limit
// (-1: no bound); for an ordered call, one per slot in request order, the
// slot's own binding first, else the first message it accepts, or nothing
// at all. The picked messages leave the pool.
func (rp *Replayer) stageLive(reqs []*simmpi.Request, limit int, ordered bool) []pooled {
	staged := rp.staged[:0]
	if ordered {
		for _, r := range reqs {
			k := -1
			for i := range rp.pool {
				p := &rp.pool[i]
				if p.taken {
					continue
				}
				if p.req == r {
					k = i
					break
				}
				if k < 0 && r != nil && r.Accepts(p.st.Source, p.st.Tag) {
					k = i
				}
			}
			if k < 0 {
				for i := range rp.pool {
					rp.pool[i].taken = false
				}
				return staged[:0]
			}
			rp.pool[k].taken = true
			staged = append(staged, rp.pool[k])
		}
	} else {
		used := rp.usedSlots(len(reqs))
		for i := range rp.pool {
			if len(staged) == limit {
				break
			}
			p := &rp.pool[i]
			if slot := rp.slotFor(reqs, used, p, 0, false); slot >= 0 {
				used[slot], p.taken = true, true
				staged = append(staged, *p)
			}
		}
	}
	rp.pool = slices.DeleteFunc(rp.pool, func(p pooled) bool { return p.taken })
	rp.mPool.Add(-int64(len(staged)))
	return staged
}

func (rp *Replayer) stallError(s *stream, staged, g int) error {
	if s.live {
		return fmt.Errorf("%w: callsite %s past the record's end: no pooled message fits the call (pool %d)",
			ErrStalled, s.name, len(rp.pool))
	}
	base := fmt.Errorf("%w: callsite %s chunk %d: observed event %d/%d (group %d/%d staged, %d collected, lmc %d, pool %d)",
		ErrStalled, s.name, s.ci-1, s.t, s.n, staged, g, s.held(), s.lmc(rp), len(rp.pool))
	tt := s.t + staged
	if len(s.senders) == 0 || tt >= s.n {
		return base
	}
	r := s.refAtObs[tt]
	key := senderTag{s.senders[r], s.tags[r]}
	pool := cappedList(rp.pool, func(p pooled) string {
		return fmt.Sprintf("(%d,%d,tag%d)", p.st.Source, p.st.Clock, p.st.Tag)
	})
	specs := cappedList(s.specs, func(sp specPair) string { return fmt.Sprint(sp) })
	return fmt.Errorf("%v; awaiting rank %d = arrival %d of (sender %d, tag %d) (have %d); pool=%s specs=%s",
		base, r, s.perKeyIndex[r], key.src, key.tag, len(s.arrivals[key]), pool, specs)
}

// stallListCap bounds each list a stall error prints; the message's
// counts carry the full sizes.
const stallListCap = 16

// cappedList renders the first stallListCap items of xs as [a b ...],
// followed by the number left out.
func cappedList[T any](xs []T, item func(T) string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range xs[:min(len(xs), stallListCap)] {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(item(x))
	}
	b.WriteByte(']')
	if n := len(xs) - stallListCap; n > 0 {
		fmt.Fprintf(&b, " (+%d more)", n)
	}
	return b.String()
}

// free reports whether slot r of an MF call can still report a message:
// the application owns it and no other message of this call used it.
func (rp *Replayer) free(r *simmpi.Request, used bool) bool {
	return r != nil && !used && !rp.appDone[r]
}

// slotFor picks the slot of reqs that reports group member gi, m: slot gi
// for an ordered call (Waitall and Testall: the record's group rows are in
// request order), otherwise m's own binding if the application still owns
// it, otherwise any free slot whose spec accepts m. It returns -1 when no
// free slot accepts m.
func (rp *Replayer) slotFor(reqs []*simmpi.Request, used []bool, m *pooled, gi int, ordered bool) int {
	if ordered {
		if gi < len(reqs) && rp.free(reqs[gi], used[gi]) && reqs[gi].Accepts(m.st.Source, m.st.Tag) {
			return gi
		}
		return -1
	}
	for i, r := range reqs {
		if r == m.req && rp.free(r, used[i]) {
			return i
		}
	}
	for i, r := range reqs {
		if rp.free(r, used[i]) && r.Accepts(m.st.Source, m.st.Tag) {
			return i
		}
	}
	return -1
}

// usedSlots returns the reused per-slot flags for n requests, all false.
func (rp *Replayer) usedSlots(n int) []bool {
	rp.used = slices.Grow(rp.used[:0], n)[:n]
	clear(rp.used)
	return rp.used
}

// finishSlot marks a slot virtually complete. If its own binding is still
// pending below, the request becomes a ghost: it stays in the outstanding
// set and keeps being polled, and the next Irecv of its spec may hand it
// back.
func (rp *Replayer) finishSlot(r *simmpi.Request) {
	if done, out := rp.appDone[r]; !out || done {
		return
	}
	rp.appDone[r] = true
	src, tag := r.Spec()
	sp := specPair{src, tag}
	rp.ghosts[sp] = append(rp.dropHarvestedGhosts(sp), r)
}

// release hands a staged group to the app through slots of reqs chosen by
// slotFor, ticking the lamport clock per event in group order, so
// piggybacked clocks stay meaningful past the record's end too. A replayed
// group advances the stream cursor and counts in Released, a live one in
// LiveReleases.
func (rp *Replayer) release(s *stream, reqs []*simmpi.Request, group []pooled, ordered bool) ([]int, []simmpi.Status, error) {
	used, idxs, sts := rp.usedSlots(len(reqs)), rp.idxs[:0], rp.sts[:0]
	for gi := range group {
		m := &group[gi]
		slot := rp.slotFor(reqs, used, m, gi, ordered)
		if slot < 0 {
			return nil, nil, rp.slotError(reqs, used, m)
		}
		used[slot] = true
		idxs = append(idxs, slot)
		sts = append(sts, m.st)
		rp.finishSlot(reqs[slot])
		rp.next.TickReceive(m.st.Clock)
		if rp.opts.OnRelease != nil {
			rp.opts.OnRelease(m.st)
		}
	}
	rp.idxs, rp.sts = idxs, sts
	if s.live {
		rp.stats.LiveReleases += uint64(len(group))
		rp.mLive.Add(uint64(len(group)))
		return idxs, sts, nil
	}
	rp.stats.Released += uint64(len(group))
	rp.mReleases.Add(uint64(len(group)))
	s.t += len(group)
	if s.nReleased >= s.n && s.n > 0 {
		rp.stats.ChunksVerified++
	}
	if err := s.verifyChunk(); err != nil {
		return nil, nil, err
	}
	return idxs, sts, nil
}

// slotError reports a group member no slot of the call can report.
func (rp *Replayer) slotError(reqs []*simmpi.Request, used []bool, m *pooled) error {
	var slots []string
	for i, r := range reqs {
		if r == nil {
			slots = append(slots, "nil")
			continue
		}
		src, tag := r.Spec()
		slots = append(slots, fmt.Sprintf("%d:(%d,%d,used=%v,done=%v)", i, src, tag, used[i], rp.appDone[r]))
	}
	return fmt.Errorf("%w: no request slot accepts the message from rank %d tag %d clock %d (slots %v)",
		ErrDiverged, m.st.Source, m.st.Tag, m.st.Clock, slots)
}

// matchedCall stages the group the call completes (awaitGroup) and
// releases it through reqs. An empty group, a failed test, releases
// nothing.
func (rp *Replayer) matchedCall(s *stream, reqs []*simmpi.Request, limit int, ordered, wait bool) ([]int, []simmpi.Status, error) {
	group, err := rp.awaitGroup(s, reqs, limit, ordered, wait)
	if err != nil || len(group) == 0 {
		return nil, nil, err
	}
	return rp.release(s, reqs, group, ordered)
}

// testFamily is the shared body of Test/Testany/Testsome/Testall: a
// matched call that reports whether anything completed.
func (rp *Replayer) testFamily(s *stream, reqs []*simmpi.Request, limit int, ordered bool) (bool, []int, []simmpi.Status, error) {
	idxs, sts, err := rp.matchedCall(s, reqs, limit, ordered, false)
	return err == nil && len(sts) > 0, idxs, sts, err
}

// Test replays a single-request test.
func (rp *Replayer) Test(req *simmpi.Request) (bool, simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return false, simmpi.Status{}, err
	}
	ok, _, sts, err := rp.testFamily(s, []*simmpi.Request{req}, 1, false)
	if err != nil || !ok {
		return false, simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return false, simmpi.Status{}, fmt.Errorf("%w: Test released %d events", ErrDiverged, len(sts))
	}
	return true, sts[0], nil
}

// Testany replays a test over a set, completing at most one request.
func (rp *Replayer) Testany(reqs []*simmpi.Request) (int, bool, simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return -1, false, simmpi.Status{}, err
	}
	ok, idxs, sts, err := rp.testFamily(s, reqs, 1, false)
	if err != nil || !ok {
		return -1, false, simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return -1, false, simmpi.Status{}, fmt.Errorf("%w: Testany released %d events", ErrDiverged, len(sts))
	}
	return idxs[0], true, sts[0], nil
}

// Testsome replays a multi-completion test.
func (rp *Replayer) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return nil, nil, err
	}
	_, idxs, sts, err := rp.testFamily(s, reqs, -1, false)
	return idxs, sts, err
}

// Testall replays an all-or-nothing test: a recorded failed test returns
// false; a recorded matched set is released in request order like Waitall.
func (rp *Replayer) Testall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	if len(reqs) == 0 {
		return true, nil, nil
	}
	s, err := rp.stream(2)
	if err != nil {
		return false, nil, err
	}
	ok, _, sts, err := rp.testFamily(s, reqs, -1, true)
	if err != nil || !ok {
		return false, nil, err
	}
	if len(sts) != len(reqs) {
		return false, nil, fmt.Errorf("%w: Testall over %d requests released %d events", ErrDiverged, len(reqs), len(sts))
	}
	return true, sts, nil // an ordered release reports in request order
}

// Wait replays a blocking single-request wait.
func (rp *Replayer) Wait(req *simmpi.Request) (simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return simmpi.Status{}, err
	}
	_, sts, err := rp.matchedCall(s, []*simmpi.Request{req}, 1, false, true)
	if err != nil {
		return simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return simmpi.Status{}, fmt.Errorf("%w: Wait released %d events", ErrDiverged, len(sts))
	}
	return sts[0], nil
}

// Waitany replays a blocking wait over a set.
func (rp *Replayer) Waitany(reqs []*simmpi.Request) (int, simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return -1, simmpi.Status{}, err
	}
	idxs, sts, err := rp.matchedCall(s, reqs, 1, false, true)
	if err != nil {
		return -1, simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return -1, simmpi.Status{}, fmt.Errorf("%w: Waitany released %d events", ErrDiverged, len(sts))
	}
	return idxs[0], sts[0], nil
}

// Waitsome replays a blocking multi-completion wait.
func (rp *Replayer) Waitsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return nil, nil, err
	}
	return rp.matchedCall(s, reqs, -1, false, true)
}

// Waitall replays a wait for every request. The record's with_next group
// rows are in request order (that is how Waitall reports statuses), so
// group member i maps to reqs[i].
func (rp *Replayer) Waitall(reqs []*simmpi.Request) ([]simmpi.Status, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	s, err := rp.stream(2)
	if err != nil {
		return nil, err
	}
	_, sts, err := rp.matchedCall(s, reqs, -1, true, true)
	if err != nil {
		return nil, err
	}
	if len(sts) != len(reqs) {
		return nil, fmt.Errorf("%w: Waitall over %d requests released %d events", ErrDiverged, len(reqs), len(sts))
	}
	return sts, nil // an ordered release reports in request order
}

// Stats returns the replayer's counters.
func (rp *Replayer) Stats() Stats { return rp.stats }

// Clock exposes the underlying lamport layer's current clock so a recorder
// stacked on top of a replayer (DST property P2) can discover the clock
// source exactly as it would on a plain lamport layer.
func (rp *Replayer) Clock() uint64 { return rp.next.Clock() }

// Verify reports leftover state after the application finished: unreplayed
// record events or unreleased pooled messages. Once the replay crossed into
// live execution (LiveAfterExhausted) the suffix is non-deterministic and
// leftover state is expected, so Verify reports nothing.
func (rp *Replayer) Verify() error {
	if live, _ := rp.Live(); live {
		return nil
	}
	var problems []error
	// Iterate streams in sorted-name order so Verify's error text is
	// stable run to run (map order would shuffle the problem list).
	streams := make([]*stream, 0, len(rp.streams))
	for _, s := range rp.streams { //cdc:allow(maporder) sorted by name immediately below
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].name < streams[j].name })
	for _, s := range streams {
		remaining := int(s.total - s.seen)
		if s.loaded {
			remaining += s.n - s.t
		}
		if remaining > 0 {
			problems = append(problems, fmt.Errorf("replay: %s has %d unreplayed events", s.name, remaining))
		}
	}
	if len(rp.pool) > 0 {
		problems = append(problems, fmt.Errorf("replay: %d messages pooled but never released", len(rp.pool)))
	}
	return errors.Join(problems...)
}
