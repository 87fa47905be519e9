package cdc

import (
	"errors"
	"fmt"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/feed"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
)

// ErrInvalidOption is the sentinel every option-validation failure unwraps
// to, so callers can test errors.Is(err, cdc.ErrInvalidOption) without
// matching on the specific option.
var ErrInvalidOption = errors.New("cdc: invalid option")

// OptionError reports a rejected option: which one, and why. It unwraps to
// ErrInvalidOption.
type OptionError struct {
	// Option names the constructor that produced the bad option, e.g.
	// "WithDurable".
	Option string
	// Reason explains the rejection.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("cdc: option %s: %s", e.Option, e.Reason)
}

// Unwrap makes errors.Is(err, ErrInvalidOption) work.
func (e *OptionError) Unwrap() error { return ErrInvalidOption }

// sessionMode scopes options: some only make sense when recording, some
// only when replaying.
type sessionMode int

const (
	modeRecord sessionMode = iota
	modeReplay
	modeRead
	modeFeed
)

func (m sessionMode) String() string {
	switch m {
	case modeRecord:
		return "Record"
	case modeReplay:
		return "Replay"
	case modeFeed:
		return "Feed"
	default:
		return "Read"
	}
}

// config is the merged, validated option set for one session.
type config struct {
	mode sessionMode

	// Shared.
	app    string
	params map[string]string
	obs    *obs.Registry

	// Storage destination/source: exactly one of dir (with optional
	// layout) or store.
	dir    string
	layout string
	store  Store

	// Record side.
	flushInterval    time.Duration
	flushEveryRows   int
	durable          bool
	chunkEvents      int
	omitSenderColumn bool
	encodeWorkers    int

	// Decode side (Replay sessions, record readers and feeds).
	decodeWorkers int

	// Replay side.
	timeout   time.Duration
	onRelease func(rank int, st simmpi.Status)

	// Feed side (OpenFeed sessions).
	feedRank         int
	feedRate         float64
	feedInterval     time.Duration
	feedClock        feed.Clock
	subscriberBuffer int
	slowConsumer     feed.Policy
	startEpoch       int
	feedPaused       bool
}

// decoderOptions is the decode policy the session's options describe.
func (c *config) decoderOptions() core.DecoderOptions {
	return core.DecoderOptions{DecodeWorkers: c.decodeWorkers, Obs: c.obs}
}

// Option configures a Record or Replay session. Options are validated when
// applied; an invalid value or a mode mismatch surfaces as an *OptionError
// before any goroutine starts or file is touched.
type Option func(*config) error

// recordOnly wraps an option body with a Record-mode check.
func recordOnly(name string, f func(*config) error) Option {
	return func(c *config) error {
		if c.mode != modeRecord {
			return &OptionError{Option: name, Reason: "only valid for Record sessions, not " + c.mode.String()}
		}
		return f(c)
	}
}

// replayOnly wraps an option body with a Replay-mode check.
func replayOnly(name string, f func(*config) error) Option {
	return func(c *config) error {
		if c.mode != modeReplay {
			return &OptionError{Option: name, Reason: "only valid for Replay sessions, not " + c.mode.String()}
		}
		return f(c)
	}
}

// decodeSide wraps an option body with a decode-path check: valid for
// Replay sessions, OpenRankRecord and OpenFeed, but not for Record
// sessions.
func decodeSide(name string, f func(*config) error) Option {
	return func(c *config) error {
		if c.mode == modeRecord {
			return &OptionError{Option: name, Reason: "only valid for Replay sessions and record readers, not Record"}
		}
		return f(c)
	}
}

// newConfig applies opts in order and runs cross-option validation.
func newConfig(mode sessionMode, opts []Option) (*config, error) {
	c := &config{mode: mode}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.durable && c.flushInterval == 0 && c.flushEveryRows == 0 {
		return nil, &OptionError{Option: "WithDurable",
			Reason: "requires a flush cadence (WithFlushInterval or WithFlushEveryRows); " +
				"without one the record only reaches storage at Close, so durability would not bound crash loss"}
	}
	if c.store != nil && c.dir != "" {
		return nil, &OptionError{Option: "WithStore",
			Reason: "mutually exclusive with WithDir; pass one storage destination"}
	}
	if c.store != nil && c.layout != "" {
		return nil, &OptionError{Option: "WithStoreLayout",
			Reason: "mutually exclusive with WithStore; a Store implementation fixes its own layout"}
	}
	if c.layout != "" && c.dir == "" {
		return nil, &OptionError{Option: "WithStoreLayout",
			Reason: "requires WithDir to name the run directory the layout applies to"}
	}
	if c.store == nil && c.dir == "" && c.mode != modeRead {
		return nil, &OptionError{Option: "WithDir",
			Reason: c.mode.String() + " needs a storage destination: pass WithDir (optionally with WithStoreLayout) or WithStore"}
	}
	return c, nil
}

// WithDir names the on-disk run directory the session records to or
// replays from. Recording defaults to the "dir" layout (see
// WithStoreLayout); replay discovers the layout from the manifest.
// Mutually exclusive with WithStore.
func WithDir(path string) Option {
	return func(c *config) error {
		if path == "" {
			return &OptionError{Option: "WithDir", Reason: "directory must be non-empty"}
		}
		c.dir = path
		return nil
	}
}

// WithStoreLayout picks the on-disk storage layout for a recording under
// WithDir: LayoutDir ("dir", the default — one record file per rank,
// byte-compatible with historical records) or LayoutSharded ("sharded" —
// rank blobs fanned across shard subdirectories as compactable fragments,
// with seekable cuts). Replay sessions reject it: the layout is read from
// the manifest, never stated.
func WithStoreLayout(layout string) Option {
	return recordOnly("WithStoreLayout", func(c *config) error {
		if layout != LayoutDir && layout != LayoutSharded {
			return &OptionError{Option: "WithStoreLayout",
				Reason: fmt.Sprintf("unknown layout %q; valid layouts are %q and %q", layout, LayoutDir, LayoutSharded)}
		}
		c.layout = layout
		return nil
	})
}

// WithStore plugs a Store implementation directly — any backend honouring
// the internal/store contract, including the in-memory one used by tests
// and deterministic simulation. Mutually exclusive with WithDir.
func WithStore(st Store) Option {
	return func(c *config) error {
		if st == nil {
			return &OptionError{Option: "WithStore", Reason: "store must be non-nil"}
		}
		c.store = st
		return nil
	}
}

// WithApp names the application in the record manifest (Record) or
// cross-checks the manifest's app name before replaying (Replay). Empty
// skips the replay-side check.
func WithApp(name string) Option {
	return func(c *config) error {
		c.app = name
		return nil
	}
}

// WithParams attaches free-form application parameters to the record
// manifest, for the replay operator to cross-check.
func WithParams(params map[string]string) Option {
	return recordOnly("WithParams", func(c *config) error {
		if c.params == nil {
			c.params = make(map[string]string, len(params))
		}
		for k, v := range params {
			c.params[k] = v
		}
		return nil
	})
}

// WithObs attaches an obs.Registry: the session's pipeline layers publish
// their metrics (record.*, encode.*, replay.* — see DESIGN.md §8) into it.
// Without this option instrumentation is disabled and costs one pointer
// check per site.
func WithObs(reg *obs.Registry) Option {
	return func(c *config) error {
		c.obs = reg
		return nil
	}
}

// WithFlushInterval makes each rank's CDC goroutine flush pending chunks to
// storage at least every d while idle (the §3.5 periodic flush).
func WithFlushInterval(d time.Duration) Option {
	return recordOnly("WithFlushInterval", func(c *config) error {
		if d <= 0 {
			return &OptionError{Option: "WithFlushInterval", Reason: fmt.Sprintf("interval must be positive, got %v", d)}
		}
		c.flushInterval = d
		return nil
	})
}

// WithFlushEveryRows flushes pending chunks after every n observed rows — a
// deterministic cadence, unlike WithFlushInterval.
func WithFlushEveryRows(n int) Option {
	return recordOnly("WithFlushEveryRows", func(c *config) error {
		if n < 1 {
			return &OptionError{Option: "WithFlushEveryRows", Reason: fmt.Sprintf("row count must be positive, got %d", n)}
		}
		c.flushEveryRows = n
		return nil
	})
}

// WithDurable fsyncs each rank's record at every flush point and on close,
// bounding what a machine crash can lose to the events since the last
// flush. It requires a flush cadence (WithFlushInterval or
// WithFlushEveryRows); newConfig rejects the combination without one.
func WithDurable() Option {
	return recordOnly("WithDurable", func(c *config) error {
		c.durable = true
		return nil
	})
}

// WithChunkEvents sets the matched events per chunk before a flush
// (default 4096, the §3.5 epoch granularity).
func WithChunkEvents(n int) Option {
	return recordOnly("WithChunkEvents", func(c *config) error {
		if n < 1 {
			return &OptionError{Option: "WithChunkEvents", Reason: fmt.Sprintf("chunk size must be positive, got %d", n)}
		}
		c.chunkEvents = n
		return nil
	})
}

// WithEncodeWorkers fans each rank's chunk encoding (chunk building and
// serialization, the CPU-bound part of the CDC thread's work) across n
// workers, with an ordered-commit stage keeping the record file
// byte-identical to single-threaded output (DESIGN.md §9). n = 1 — the
// default — keeps encoding on the CDC goroutine itself.
func WithEncodeWorkers(n int) Option {
	return recordOnly("WithEncodeWorkers", func(c *config) error {
		if n < 1 {
			return &OptionError{Option: "WithEncodeWorkers", Reason: fmt.Sprintf("worker count must be positive, got %d", n)}
		}
		if n > 256 {
			return &OptionError{Option: "WithEncodeWorkers", Reason: fmt.Sprintf("worker count %d exceeds the sanity cap of 256", n)}
		}
		c.encodeWorkers = n
		return nil
	})
}

// WithOmitSenderColumn drops the sender-column robustness extension,
// producing the paper's exact record format. See
// cdcformat.Chunk.Senders for the replay-robustness trade-off.
func WithOmitSenderColumn() Option {
	return recordOnly("WithOmitSenderColumn", func(c *config) error {
		c.omitSenderColumn = true
		return nil
	})
}

// WithDecodeWorkers decodes a seekable store's records (the sharded
// layout, with a committed chunk index) on n workers: each committed epoch
// is an independently inflated segment, and an ordered delivery stage
// keeps the frame sequence identical to a serial decode (DESIGN.md §14).
// The delivery queue doubles as a fixed prefetch window of 2n+4 epochs
// ahead of the consumer. Every other read — a non-seekable store such as
// the dir layout, or a record with no committed cut — decodes serially
// whatever n is. n = 0 — the default — decodes serially in-line. Valid for
// Replay sessions, OpenRankRecord and OpenFeed.
func WithDecodeWorkers(n int) Option {
	return decodeSide("WithDecodeWorkers", func(c *config) error {
		if n < 0 {
			return &OptionError{Option: "WithDecodeWorkers", Reason: fmt.Sprintf("worker count must be non-negative, got %d", n)}
		}
		if n > 256 {
			return &OptionError{Option: "WithDecodeWorkers", Reason: fmt.Sprintf("worker count %d exceeds the sanity cap of 256", n)}
		}
		c.decodeWorkers = n
		return nil
	})
}

// WithTimeout bounds how long a replayed release may wait for its recorded
// message before failing with replay.ErrStalled (default 30s).
func WithTimeout(d time.Duration) Option {
	return replayOnly("WithTimeout", func(c *config) error {
		if d <= 0 {
			return &OptionError{Option: "WithTimeout", Reason: fmt.Sprintf("timeout must be positive, got %v", d)}
		}
		c.timeout = d
		return nil
	})
}

// WithOnRelease registers a callback invoked for every receive event handed
// to the application, in the order that rank observes them.
func WithOnRelease(f func(rank int, st simmpi.Status)) Option {
	return replayOnly("WithOnRelease", func(c *config) error {
		c.onRelease = f
		return nil
	})
}
