package simmpi

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"

	"cdcreplay/internal/obs"
)

// mailboxInstruments are the runtime's optional obs hooks, shared across all
// ranks' mailboxes. Nil instruments (from a nil obs.Registry) are no-ops.
type mailboxInstruments struct {
	// jitter observes each message's drawn delivery delay in poll ticks
	// (before the FIFO clamp) — the noise model the replay must undo.
	jitter *obs.Histogram
	// messages counts deposited messages world-wide.
	messages *obs.Counter
	// inflight samples one mailbox's undelivered backlog at each deposit;
	// its high-water mark is the peak per-rank reordering window.
	inflight *obs.Gauge
}

// envelope is a message in flight or awaiting matching.
type envelope struct {
	src, tag int
	data     []byte
	// arriveAt is the receiver poll tick at which the message becomes
	// visible to matching. Per-sender monotonicity of arriveAt (enforced
	// at deposit) preserves MPI's non-overtaking guarantee.
	arriveAt uint64
	// depositSeq breaks arrival ties deterministically-within-a-run.
	depositSeq uint64
}

// mailbox is one rank's incoming-message buffer. Senders deposit under the
// lock; the owning rank drains during its polls. Delivery jitter reorders
// messages across senders (never within one sender), modelling network and
// system noise (paper §1, [12]).
type mailbox struct {
	mu         sync.Mutex
	rng        *rand.Rand
	maxJitter  int
	tick       uint64
	depositSeq uint64
	inflight   []*envelope
	// ready is drain's result buffer, reused across polls. Only the owner
	// rank touches it, through drain.
	ready []*envelope
	// lastArrive tracks per-sender arrival frontiers to keep FIFO order.
	lastArrive map[int]uint64
	// deliver, when non-nil, replaces the jitter RNG (Options.Delivery
	// with this mailbox's rank bound as dst).
	deliver func(src, tag int, seq uint64) uint64

	ins mailboxInstruments
}

func newMailbox(seed int64, maxJitter int) *mailbox {
	return &mailbox{
		rng:        rand.New(rand.NewSource(seed)),
		maxJitter:  maxJitter,
		lastArrive: make(map[int]uint64),
	}
}

// deposit is called from the sender's goroutine.
func (m *mailbox) deposit(src, tag int, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var jitter uint64
	if m.deliver != nil {
		jitter = m.deliver(src, tag, m.depositSeq+1)
	} else {
		jitter = uint64(m.rng.Intn(m.maxJitter + 1))
	}
	at := m.tick + jitter + 1
	if last := m.lastArrive[src]; at < last {
		at = last // never overtake an earlier message from the same sender
	}
	m.lastArrive[src] = at
	m.depositSeq++
	m.inflight = append(m.inflight, &envelope{
		src: src, tag: tag, data: data,
		arriveAt: at, depositSeq: m.depositSeq,
	})
	m.ins.jitter.Observe(jitter)
	m.ins.messages.Inc()
	m.ins.inflight.Set(int64(len(m.inflight)))
}

// drain advances the receiver's poll tick and returns every message whose
// arrival time has passed, in arrival order. Called only by the owner rank;
// the returned slice is reused by the next drain.
func (m *mailbox) drain() []*envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	clear(m.ready) // drop the previous poll's pointers
	m.ready = m.ready[:0]
	rest := m.inflight[:0]
	for _, e := range m.inflight {
		if e.arriveAt <= m.tick {
			m.ready = append(m.ready, e)
		} else {
			rest = append(rest, e)
		}
	}
	clear(m.inflight[len(rest):])
	m.inflight = rest
	slices.SortFunc(m.ready, func(a, b *envelope) int {
		if c := cmp.Compare(a.arriveAt, b.arriveAt); c != 0 {
			return c
		}
		return cmp.Compare(a.depositSeq, b.depositSeq)
	})
	return m.ready
}

// pending reports whether undelivered messages remain (for diagnostics).
func (m *mailbox) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight)
}
