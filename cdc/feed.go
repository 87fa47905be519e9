package cdc

import (
	"fmt"
	"math"
	"time"

	"cdcreplay/internal/feed"
)

// Feed is a live-paced replay stream over one rank's record: the record's
// clock-stamped flush marks are mapped onto a monotone timeline and
// released at a controllable sim rate, with pause/resume, epoch-aligned
// Seek, and fan-out to concurrent subscribers. See internal/feed and
// DESIGN.md §16.
type Feed = feed.Feed

// FeedEvent is one feed release (frame, flush mark, seek marker, gap
// marker, or end-of-stream).
type FeedEvent = feed.Event

// FeedSubscription is one consumer's bounded view of a Feed.
type FeedSubscription = feed.Subscription

// FeedStats is a Feed's point-in-time dials-and-counters snapshot.
type FeedStats = feed.Stats

// FeedClock is the pacer's source of time: the wall clock in production
// (the default), a feed.VirtualClock in deterministic tests.
type FeedClock = feed.Clock

// FeedPolicy selects what a Feed does with a subscriber that stops
// draining: FeedBlock throttles the whole feed, FeedDrop discards with
// gap markers.
type FeedPolicy = feed.Policy

const (
	// FeedBlock stalls the pacer until every subscriber has queue space.
	FeedBlock = feed.Block
	// FeedDrop discards releases a full subscriber cannot take, delivering
	// a gap marker before its next accepted event.
	FeedDrop = feed.Drop
)

// Feed event kinds.
const (
	FeedFrame = feed.KindFrame
	FeedFlush = feed.KindFlush
	FeedSeek  = feed.KindSeek
	FeedGap   = feed.KindGap
	FeedEnd   = feed.KindEnd
)

// FeedRateMax is the unpaced sim rate: releases are never delayed.
var FeedRateMax = feed.RateMax

// ErrFeedClosed is returned by feed operations after the feed closed or
// its record stream ended.
var ErrFeedClosed = feed.ErrFeedClosed

// feedOnly wraps an option body with a Feed-mode check.
func feedOnly(name string, f func(*config) error) Option {
	return func(c *config) error {
		if c.mode != modeFeed {
			return &OptionError{Option: name, Reason: "only valid for OpenFeed sessions, not " + c.mode.String()}
		}
		return f(c)
	}
}

// WithFeedRank selects which rank's record the feed streams (default 0).
func WithFeedRank(rank int) Option {
	return feedOnly("WithFeedRank", func(c *config) error {
		if rank < 0 {
			return &OptionError{Option: "WithFeedRank", Reason: fmt.Sprintf("rank must be non-negative, got %d", rank)}
		}
		c.feedRank = rank
		return nil
	})
}

// WithFeedRate sets the sim rate: recorded-clock seconds per feed second.
// 0.5 plays at half speed, 1 (the default) in recorded proportion, 2 at
// double speed; FeedRateMax releases without pacing waits.
func WithFeedRate(rate float64) Option {
	return feedOnly("WithFeedRate", func(c *config) error {
		if rate <= 0 || math.IsNaN(rate) {
			return &OptionError{Option: "WithFeedRate", Reason: fmt.Sprintf("rate must be positive (or FeedRateMax), got %v", rate)}
		}
		c.feedRate = rate
		return nil
	})
}

// WithFeedInterval sets the feed time one recorded clock tick maps to at
// rate 1× (default 1ms).
func WithFeedInterval(d time.Duration) Option {
	return feedOnly("WithFeedInterval", func(c *config) error {
		if d <= 0 {
			return &OptionError{Option: "WithFeedInterval", Reason: fmt.Sprintf("interval must be positive, got %v", d)}
		}
		c.feedInterval = d
		return nil
	})
}

// WithFeedClock substitutes the pacer's time source — a
// feed.VirtualClock makes every release schedule deterministic for tests.
func WithFeedClock(clk FeedClock) Option {
	return feedOnly("WithFeedClock", func(c *config) error {
		if clk == nil {
			return &OptionError{Option: "WithFeedClock", Reason: "clock must be non-nil"}
		}
		c.feedClock = clk
		return nil
	})
}

// WithSubscriberBuffer bounds each subscription's event queue (default
// 64). The minimum is 2: the drop policy delivers gap markers and their
// following event together.
func WithSubscriberBuffer(n int) Option {
	return feedOnly("WithSubscriberBuffer", func(c *config) error {
		if n < 2 {
			return &OptionError{Option: "WithSubscriberBuffer", Reason: fmt.Sprintf("buffer must be at least 2, got %d", n)}
		}
		if n > 1<<20 {
			return &OptionError{Option: "WithSubscriberBuffer", Reason: fmt.Sprintf("buffer %d exceeds the sanity cap of %d", n, 1<<20)}
		}
		c.subscriberBuffer = n
		return nil
	})
}

// WithSlowConsumer picks the slow-consumer policy: FeedBlock (default)
// throttles the feed to its slowest subscriber, FeedDrop keeps pace and
// marks each subscriber's losses with gap events.
func WithSlowConsumer(p FeedPolicy) Option {
	return feedOnly("WithSlowConsumer", func(c *config) error {
		if p != FeedBlock && p != FeedDrop {
			return &OptionError{Option: "WithSlowConsumer", Reason: fmt.Sprintf("unknown policy %d; pass FeedBlock or FeedDrop", p)}
		}
		c.slowConsumer = p
		return nil
	})
}

// WithStartEpoch begins playback at an epoch boundary (0 = record head,
// k = just past the k-th committed cut), exactly as a Seek there.
func WithStartEpoch(epoch int) Option {
	return feedOnly("WithStartEpoch", func(c *config) error {
		if epoch < 0 {
			return &OptionError{Option: "WithStartEpoch", Reason: fmt.Sprintf("epoch must be non-negative, got %d", epoch)}
		}
		c.startEpoch = epoch
		return nil
	})
}

// WithFeedPaused opens the feed frozen: nothing releases until Resume, so
// subscribers can attach without missing the head of the stream.
func WithFeedPaused() Option {
	return feedOnly("WithFeedPaused", func(c *config) error {
		c.feedPaused = true
		return nil
	})
}

// OpenFeed opens a live-paced replay feed over the record named by
// WithDir (layout discovered from the manifest) or passed via WithStore.
// Unlike Replay it accepts an incomplete (still-recording or crashed) run:
// the stream is pinned to the rank's last committed epoch line, which is
// what makes the feed usable as a tail on a run in progress.
//
// The caller owns the returned Feed and must Close it.
func OpenFeed(opts ...Option) (*Feed, error) {
	cfg, err := newConfig(modeFeed, opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.openReplayStore()
	if err != nil {
		return nil, err
	}
	m, err := st.Manifest()
	if err != nil {
		return nil, err
	}
	if cfg.app != "" && m.App != cfg.app {
		return nil, fmt.Errorf("cdc: record is for app %q, not %q", m.App, cfg.app)
	}
	return feed.Open(st, feed.Options{
		Rank:             cfg.feedRank,
		Rate:             cfg.feedRate,
		Interval:         cfg.feedInterval,
		Clock:            cfg.feedClock,
		DecodeWorkers:    cfg.decodeWorkers,
		SubscriberBuffer: cfg.subscriberBuffer,
		Policy:           cfg.slowConsumer,
		StartEpoch:       cfg.startEpoch,
		Paused:           cfg.feedPaused,
		Obs:              cfg.obs,
	})
}
