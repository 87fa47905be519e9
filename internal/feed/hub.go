package feed

import (
	"errors"

	"sync"

	"cdcreplay/internal/obs"
)

// Policy decides what the hub does with a subscriber that stops draining
// its queue while the feed keeps releasing.
type Policy uint8

const (
	// Block stalls the pacer until every subscriber has queue space: one
	// slow consumer throttles the whole feed (and, through the pump, the
	// decode pipeline's read-ahead). The default.
	Block Policy = iota
	// Drop discards releases a full subscriber cannot take and delivers a
	// gap-marker event (Dropped = how many) before its next accepted
	// event, so a lagging dashboard sees an explicit hole, never a stall
	// and never silently missing data.
	Drop
)

func (p Policy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// ErrFeedClosed is returned by Subscribe after the feed closed or its
// record stream ended.
var ErrFeedClosed = errors.New("feed: closed")

// hub fans the pump's release stream out to subscribers, each with its own
// bounded queue. One mutex/cond pair guards all queues and the hub's own
// counts: publishes and receives are short critical sections, and a shared
// broadcast keeps the block policy's "space anywhere" wakeup simple.
type hub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	subs    map[*Subscription]struct{}
	cap     int
	policy  Policy
	closed  bool
	drops   uint64 // releases discarded under Drop, all subscribers
	blocked uint64 // publishes the Block policy made wait

	// Export-only instruments (nil without a registry).
	mSubs    *obs.Gauge
	mDrops   *obs.Counter
	mBlocked *obs.Counter
}

func newHub(capacity int, policy Policy, reg *obs.Registry) *hub {
	h := &hub{
		subs:     make(map[*Subscription]struct{}),
		cap:      capacity,
		policy:   policy,
		mSubs:    reg.Gauge("feed.subscribers"),
		mDrops:   reg.Counter("feed.drops"),
		mBlocked: reg.Counter("feed.backpressure"),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Subscription is one consumer's bounded view of the feed. Events arrive
// in release order; Recv blocks until the next event, the subscription is
// closed, or the feed ends with the queue drained.
type Subscription struct {
	h       *hub
	buf     []Event
	head    int
	n       int
	dropped uint64
	closed  bool
}

// subscribe registers a new consumer.
func (h *hub) subscribe() (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrFeedClosed
	}
	s := &Subscription{h: h, buf: make([]Event, h.cap)}
	h.subs[s] = struct{}{}
	h.mSubs.Set(int64(len(h.subs)))
	return s, nil
}

// push appends ev to s's ring; the caller holds h.mu and has checked space.
func (s *Subscription) push(ev Event) {
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
}

// publish delivers ev to every live subscriber under the hub's policy,
// counting one backpressure stall when the block policy makes it wait.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.policy == Block {
		blocked := false
		for !h.closed {
			fits := true
			for s := range h.subs {
				if !s.closed && s.n == len(s.buf) {
					fits = false
					break
				}
			}
			if fits {
				break
			}
			if !blocked {
				blocked = true
				h.blocked++
				h.mBlocked.Inc()
			}
			h.cond.Wait()
		}
		if h.closed {
			return
		}
	}
	for s := range h.subs {
		if s.closed {
			continue
		}
		free := len(s.buf) - s.n
		switch {
		case s.dropped > 0 && free >= 2:
			// The gap marker precedes the first event delivered after a
			// dropped run, so consumers see the hole exactly where it was.
			s.push(Event{Kind: KindGap, Dropped: s.dropped, At: ev.At})
			s.dropped = 0
			s.push(ev)
		case s.dropped == 0 && free >= 1:
			s.push(ev)
		default:
			// Full (or only one slot while a gap is pending): the release
			// joins the dropped run. Only reachable under the Drop policy —
			// Block waited for space above.
			s.dropped++
			h.drops++
			h.mDrops.Inc()
		}
	}
	h.cond.Broadcast()
}

// stats reports the live subscriber count and the hub's drop and
// backpressure counts.
func (h *hub) stats() (subs int64, drops, blocked uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(len(h.subs)), h.drops, h.blocked
}

// close ends the stream: Recv drains buffered events then reports done,
// publish stops blocking, Subscribe fails.
func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// Recv returns the next event, blocking until one is available. ok is
// false once the subscription is closed, or the feed has closed and the
// queue is drained.
func (s *Subscription) Recv() (ev Event, ok bool) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for s.n == 0 && !s.closed && !h.closed {
		h.cond.Wait()
	}
	if s.n == 0 || s.closed {
		return Event{}, false
	}
	ev = s.buf[s.head]
	s.buf[s.head] = Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	h.cond.Broadcast()
	return ev, true
}

// TryRecv is Recv without blocking: ok is false when no event is queued.
func (s *Subscription) TryRecv() (ev Event, ok bool) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.n == 0 || s.closed {
		return Event{}, false
	}
	ev = s.buf[s.head]
	s.buf[s.head] = Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	h.cond.Broadcast()
	return ev, true
}

// Close detaches the subscription. Pending events are discarded; a blocked
// pump (Block policy) stops waiting on this consumer.
func (s *Subscription) Close() {
	h := s.h
	h.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(h.subs, s)
		h.mSubs.Set(int64(len(h.subs)))
		h.cond.Broadcast()
	}
	h.mu.Unlock()
}

// Dropped reports how many releases this subscription has lost so far
// (Drop policy), including a run not yet surfaced as a gap marker.
func (s *Subscription) Dropped() uint64 {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.dropped
}
