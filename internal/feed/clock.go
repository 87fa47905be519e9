package feed

import (
	"sort"
	"sync"
	"time"
)

// Clock is the pacer's only source of time. Production feeds run on Wall();
// tests substitute a step-controlled VirtualClock so every pacing behaviour
// — release schedules, pause/resume, rate changes — is asserted
// deterministically, with no wall-clock sleeps and no timing flake. All
// wall-clock use in this package is sanctioned at this boundary only
// (DESIGN.md §16); nothing else in the feed may sample time directly.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// After returns a channel delivering one tick once the clock reaches
	// Now()+d (immediately when d <= 0), plus a cancel function releasing
	// the waiter. The channel is buffered: an abandoned waiter never
	// blocks the clock.
	After(d time.Duration) (<-chan time.Time, func())
}

// wallClock is the production Clock: real time, real timers.
type wallClock struct{}

// Wall returns the wall clock.
func Wall() Clock { return wallClock{} }

func (wallClock) Now() time.Time { return time.Now() } //cdc:allow(nodetermflow) the feed.Clock boundary: the one sanctioned wall-clock read behind the pacer

func (wallClock) After(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// VirtualClock is a deterministic Clock for tests: time moves only when
// Advance or Set is called, and waiters registered through After fire
// exactly when the virtual time reaches their deadline. The zero value is
// not usable; construct with NewVirtualClock.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*virtualWaiter
	waits   uint64
}

type virtualWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtualClock returns a virtual clock reading start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After registers a waiter due at Now()+d. A non-positive d fires
// immediately; otherwise the waiter fires from the Advance/Set call that
// reaches its deadline.
func (c *VirtualClock) After(d time.Duration) (<-chan time.Time, func()) {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waits++
	if d <= 0 {
		ch <- c.now
		return ch, func() {}
	}
	w := &virtualWaiter{at: c.now.Add(d), ch: ch}
	c.waiters = append(c.waiters, w)
	return ch, func() { c.remove(w) }
}

func (c *VirtualClock) remove(w *virtualWaiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Advance moves the virtual time forward by d, firing every waiter whose
// deadline is reached, in deadline order.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.set(c.now.Add(d))
	c.mu.Unlock()
}

// Set jumps the virtual time to t (monotone: earlier times are ignored),
// firing due waiters in deadline order.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	c.set(t)
	c.mu.Unlock()
}

// set fires due waiters with c.mu held.
func (c *VirtualClock) set(t time.Time) {
	if t.Before(c.now) {
		return
	}
	c.now = t
	var due []*virtualWaiter
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(t) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	sort.SliceStable(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, w := range due {
		w.ch <- w.at
	}
}

// AdvanceToNext jumps the virtual time to the earliest pending deadline,
// firing the waiter(s) due there. ok is false when no waiter is pending
// (time does not move). This is the test driver's "let the next scheduled
// thing happen" step.
func (c *VirtualClock) AdvanceToNext() (t time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.waiters) == 0 {
		return c.now, false
	}
	earliest := c.waiters[0].at
	for _, w := range c.waiters[1:] {
		if w.at.Before(earliest) {
			earliest = w.at
		}
	}
	c.set(earliest)
	return earliest, true
}

// Waiting reports how many waiters are currently registered.
func (c *VirtualClock) Waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// Waits reports how many After calls the clock has served in total — the
// pacing tests' proof that every wait went through the virtual clock.
func (c *VirtualClock) Waits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waits
}
