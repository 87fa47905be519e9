// Package ingestclient is the recording application's side of the cdcd
// ingest protocol: it streams order-record rows to the daemon and owns
// every fault-tolerance obligation the wire contract puts on the client —
// reconnect with capped, jittered exponential backoff; an unacked-row
// buffer replayed from the server-stated resume offset so every event is
// delivered exactly once at the record layer; throttle obedience; and
// typed, retryable-vs-permanent rejection errors.
package ingestclient

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/tables"
)

// RejectedError is a server refusal surfaced to the caller.
type RejectedError struct {
	Code ingestwire.RejectCode
	Msg  string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("ingest rejected (%v): %s", e.Code, e.Msg)
}

// Retryable reports whether redialing can help.
func (e *RejectedError) Retryable() bool { return e.Code.Retryable() }

// FrontierError is a WELCOME whose resume offset contradicts the client's
// own frontier: behind what the server already acked (a record root swap
// would do this), or past every event the client produced. Redialing the
// same server cannot repair either, so reconnect stops on it at once.
type FrontierError struct {
	// Resume is the server's stated resume offset.
	Resume uint64
	// Acked is the server's acked frontier the client holds.
	Acked uint64
	// Offset is the client's total logical-event count.
	Offset uint64
}

func (e *FrontierError) Error() string {
	if e.Resume < e.Acked {
		return fmt.Sprintf("ingestclient: server resume offset %d behind acked %d", e.Resume, e.Acked)
	}
	return fmt.Sprintf("ingestclient: server resume offset %d past client offset %d", e.Resume, e.Offset)
}

// Backoff shapes the reconnect schedule: attempt n waits
// min(Base·2ⁿ, Cap), multiplied by a uniform jitter in [1−Jitter, 1+Jitter]
// so a herd of clients reconnecting after a daemon restart spreads out
// instead of thundering back in lockstep.
type Backoff struct {
	// Base is the first delay. Default 50ms.
	Base time.Duration
	// Cap bounds any single delay. Default 2s.
	Cap time.Duration
	// Jitter is the relative spread, in [0, 1). Default 0.2.
	Jitter float64
	// MaxAttempts gives up after this many consecutive failed attempts.
	// Default 10.
	MaxAttempts int
	// Rand supplies the jitter source; tests inject a seeded one.
	// Default: a time-seeded source.
	Rand *rand.Rand
}

func (b *Backoff) fill() {
	if b.Base == 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Cap == 0 {
		b.Cap = 2 * time.Second
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	if b.MaxAttempts == 0 {
		b.MaxAttempts = 10
	}
	if b.Rand == nil {
		b.Rand = rand.New(rand.NewSource(time.Now().UnixNano())) //cdc:allow(nodetermflow) reconnect jitter wants wall-clock entropy
	}
}

// Delay computes attempt n's wait (0-based), before jitter capping.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	if b.Jitter > 0 {
		f := 1 + b.Jitter*(2*b.Rand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// Config parameterizes a Client.
type Config struct {
	// Addr is the daemon's TCP address.
	Addr string
	// Tenant, Run, Rank, Ranks identify the stream (wire Hello).
	Tenant string
	Run    string
	Rank   int
	Ranks  int
	// BatchRows flushes the send buffer at this many buffered rows.
	// Default 64.
	BatchRows int
	// WindowEvents bounds unacked logical events in flight; Observe
	// blocks past it, so a daemon that stops acking (or a THROTTLE)
	// backpressures the application. Rows arriving while an MF group is
	// open are admitted past it (see Observe). Default 65536.
	WindowEvents uint64
	// DialTimeout bounds one dial. Default 5s.
	DialTimeout time.Duration
	// AckTimeout bounds how long Close waits for the final DONE.
	// Default 30s.
	AckTimeout time.Duration
	// Backoff shapes reconnects.
	Backoff Backoff
	// Dialer overrides the TCP dial; netfault injects faults here.
	Dialer func(addr string) (net.Conn, error)
	// OnThrottle, when set, observes server THROTTLE transitions.
	OnThrottle func(on bool)
}

func (c *Config) fill() {
	if c.BatchRows == 0 {
		c.BatchRows = 64
	}
	if c.WindowEvents == 0 {
		c.WindowEvents = 65536
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 30 * time.Second
	}
	c.Backoff.fill()
	if c.Dialer == nil {
		c.Dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, c.DialTimeout)
		}
	}
}

// bufferedRow is an unacked row with its end offset (logical events
// through this row), the unit ACK trimming and resume cutting work in.
type bufferedRow struct {
	row ingestwire.Row
	end uint64
}

// Client streams one rank's rows to the daemon. Observe/Flush/Close must
// come from one goroutine (the application's CDC thread); a background
// reader consumes ACK/THROTTLE/DONE frames.
type Client struct {
	cfg Config

	mu   sync.Mutex // guards conn swap + buffer
	nc   net.Conn
	wc   *ingestwire.Conn
	live bool

	// buffer holds every row past the last server ACK, oldest first.
	buffer []bufferedRow
	// offset is the client's total logical-event count.
	offset uint64
	// sentThrough is the end offset of the last row sent on the CURRENT
	// connection (rows between acked and sentThrough are in flight).
	sentThrough uint64
	// batch accumulates rows not yet written to the wire.
	batch []ingestwire.Row
	// named tracks callsites whose name went out on this connection.
	named map[uint64]bool
	names map[uint64]string
	// midGroup marks callsites whose last admitted row had WithNext set,
	// and openGroups counts them, mirroring the daemon's seal rule: it
	// cannot seal (and so cannot ack) while any MF group is open.
	midGroup   map[uint64]bool
	openGroups int

	acked     atomic.Uint64
	throttled atomic.Bool
	doneAt    atomic.Uint64
	done      atomic.Bool
	readerErr atomic.Value // *RejectedError or error
	readerGen atomic.Uint64

	resumes atomic.Uint64
	clock   uint64
}

// Dial connects and completes the handshake, retrying under the backoff
// schedule like any other reconnect.
func Dial(cfg Config) (*Client, error) {
	cfg.fill()
	c := &Client{cfg: cfg, names: make(map[uint64]string), midGroup: make(map[uint64]bool)}
	if err := c.reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Resumes reports how many successful session resumes (reconnects after a
// working connection) this client performed.
func (c *Client) Resumes() uint64 { return c.resumes.Load() }

// Acked reports the server's durable logical-event frontier.
func (c *Client) Acked() uint64 { return c.acked.Load() }

// connect establishes one session: dial, Hello, Welcome, then requeue
// buffered rows past the server's resume offset. attempt carries the
// consecutive-failure count for backoff pacing by the caller.
func (c *Client) connect(gen uint64) error {
	nc, err := c.cfg.Dialer(c.cfg.Addr)
	if err != nil {
		return err
	}
	wc := ingestwire.NewConn(nc)                      //cdc:allow(nodetermflow) socket IO deadline on the next line; event order is server-sequenced
	nc.SetDeadline(time.Now().Add(c.cfg.DialTimeout)) //cdc:allow(errsink) deadline on live conn; IO reports failure
	err = wc.WriteHello(ingestwire.Hello{
		Version: ingestwire.Version,
		Tenant:  c.cfg.Tenant,
		Run:     c.cfg.Run,
		Rank:    c.cfg.Rank,
		Ranks:   c.cfg.Ranks,
		Resume:  c.acked.Load(),
	})
	if err != nil {
		nc.Close() //cdc:allow(errsink) teardown of a failed handshake
		return err
	}
	kind, payload, err := wc.ReadFrame()
	if err != nil {
		nc.Close() //cdc:allow(errsink) teardown of a failed handshake
		return err
	}
	switch kind {
	case ingestwire.KindWelcome:
	case ingestwire.KindReject:
		nc.Close() //cdc:allow(errsink) teardown after reject
		rej, perr := ingestwire.ParseReject(payload)
		if perr != nil {
			return perr
		}
		return &RejectedError{Code: rej.Code, Msg: rej.Msg}
	default:
		nc.Close() //cdc:allow(errsink) teardown of a broken handshake
		return fmt.Errorf("ingestclient: handshake got frame kind %#x", kind)
	}
	w, err := ingestwire.ParseWelcome(payload)
	if err != nil {
		nc.Close() //cdc:allow(errsink) teardown of a broken handshake
		return err
	}
	nc.SetDeadline(time.Time{}) //cdc:allow(errsink) clearing deadline on live conn

	c.mu.Lock()
	if c.offset == 0 && len(c.buffer) == 0 && w.Offset > 0 {
		// A fresh client joining a stream with server-side history (a
		// restarted recorder resuming its rank): the server's durable
		// frontier becomes the starting offset, and the caller streams
		// the suffix from there.
		c.offset = w.Offset
		c.acked.Store(w.Offset)
	}
	if acked := c.acked.Load(); w.Offset < acked || w.Offset > c.offset {
		// The server must never move the durable frontier backwards past
		// what it acked, nor past what the client sent.
		err := &FrontierError{Resume: w.Offset, Acked: acked, Offset: c.offset}
		c.mu.Unlock()
		nc.Close() //cdc:allow(errsink) teardown of an inconsistent session
		return err
	}
	c.nc, c.wc, c.live = nc, wc, true
	c.sentThrough = w.Offset
	c.named = make(map[uint64]bool)
	c.batch = c.batch[:0]
	// A THROTTLE belongs to its connection; a fresh session starts open
	// and the server re-asserts backpressure if it still needs it.
	c.throttled.Store(false)
	if gen > 0 {
		c.resumes.Add(1)
	}
	myGen := c.readerGen.Add(1)
	c.mu.Unlock()

	go c.readLoop(nc, wc, myGen)
	return nil
}

// readLoop consumes server frames for one connection generation.
func (c *Client) readLoop(nc net.Conn, wc *ingestwire.Conn, gen uint64) {
	for {
		kind, payload, err := wc.ReadFrame()
		if err != nil {
			c.mu.Lock()
			if c.readerGen.Load() == gen && c.nc == nc {
				c.live = false
			}
			c.mu.Unlock()
			return
		}
		switch kind {
		case ingestwire.KindAck:
			if off, err := ingestwire.ParseOffset(payload); err == nil {
				c.onAck(off)
			}
		case ingestwire.KindThrottle:
			if on, err := ingestwire.ParseThrottle(payload); err == nil {
				c.throttled.Store(on)
				if c.cfg.OnThrottle != nil {
					c.cfg.OnThrottle(on)
				}
			}
		case ingestwire.KindDone:
			if off, err := ingestwire.ParseOffset(payload); err == nil {
				c.doneAt.Store(off)
			}
			c.done.Store(true)
		case ingestwire.KindDrain:
			// Server wants us gone soon; the application decides when to
			// Close. Nothing to do at this layer.
		case ingestwire.KindError:
			if rej, err := ingestwire.ParseReject(payload); err == nil {
				c.readerErr.Store(&RejectedError{Code: rej.Code, Msg: rej.Msg})
			}
			c.mu.Lock()
			if c.readerGen.Load() == gen && c.nc == nc {
				c.live = false
			}
			c.mu.Unlock()
			nc.Close() //cdc:allow(errsink) server declared the session fatal
			return
		}
	}
}

// onAck trims the buffer through the server's durable frontier.
func (c *Client) onAck(off uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off <= c.acked.Load() {
		return
	}
	c.acked.Store(off)
	i := 0
	for i < len(c.buffer) && c.buffer[i].end <= off {
		i++
	}
	c.buffer = c.buffer[i:]
}

// fatalErr reports a permanent rejection latched by the reader.
func (c *Client) fatalErr() error {
	if v := c.readerErr.Load(); v != nil {
		if re, ok := v.(*RejectedError); ok && !re.Retryable() {
			return re
		}
	}
	return nil
}

// Observe appends one event row to the stream. name may be empty after
// the callsite's first row; clock is the application's Lamport clock at
// the observation (stamped on flush cuts server-side). Blocks while the
// unacked window is full or the server throttles, which is how daemon
// backpressure reaches the recording application.
//
// Two rules keep that wait from deadlocking against the daemon, which
// acks only at a seal and cannot seal while an MF group is open. Before
// waiting, every admitted row goes on the wire (a partial batch the daemon
// never sees can never be acked). And while a group is open, rows are
// admitted past a full window: the row that closes the group is what lets
// the daemon seal. Groups are bounded by one MF call's completions, so the
// window overshoots by at most one group.
func (c *Client) Observe(callsite uint64, name string, ev tables.Event, clock uint64) error {
	if name != "" {
		c.mu.Lock()
		if c.names[callsite] == "" {
			c.names[callsite] = name
		}
		c.mu.Unlock()
	}
	row := ingestwire.Row{Callsite: callsite, Ev: ev}
	w := row.Weight()
	for {
		if err := c.fatalErr(); err != nil {
			return err
		}
		c.mu.Lock()
		inWindow := c.offset-c.acked.Load()+w <= c.cfg.WindowEvents || c.openGroups > 0
		unsent := !c.live || c.sentThrough < c.offset
		c.mu.Unlock()
		if inWindow && !c.throttled.Load() {
			break
		}
		if unsent {
			if err := c.Flush(); err != nil {
				return err
			}
		}
		time.Sleep(200 * time.Microsecond)
	}

	c.mu.Lock()
	if open := ev.Flag && ev.WithNext; c.midGroup[callsite] != open {
		c.midGroup[callsite] = open
		if open {
			c.openGroups++
		} else {
			c.openGroups--
		}
	}
	if clock > c.clock {
		c.clock = clock
	}
	if ev.Flag && ev.Clock > c.clock {
		c.clock = ev.Clock
	}
	row.Clock = c.clock
	c.offset += w
	c.buffer = append(c.buffer, bufferedRow{row: row, end: c.offset})
	c.batch = append(c.batch, row)
	flushNow := len(c.batch) >= c.cfg.BatchRows
	c.mu.Unlock()
	if flushNow {
		return c.Flush()
	}
	return nil
}

// Flush writes every buffered-but-unsent row to the live connection,
// reconnecting (and resending from the server's offset) on failure.
func (c *Client) Flush() error {
	for attempt := 0; ; attempt++ {
		if err := c.fatalErr(); err != nil {
			return err
		}
		c.mu.Lock()
		if !c.live {
			c.mu.Unlock()
			if err := c.reconnect(); err != nil {
				return err
			}
			continue
		}
		// Resend window: everything buffered past sentThrough.
		var rows []ingestwire.Row
		start := c.sentThrough
		for _, br := range c.buffer {
			if br.end <= start {
				continue
			}
			row := br.row
			if c.names[row.Callsite] != "" && !c.named[row.Callsite] {
				row.Name = c.names[row.Callsite]
				c.named[row.Callsite] = true
			} else {
				row.Name = ""
			}
			rows = append(rows, row)
		}
		if len(rows) == 0 {
			c.batch = c.batch[:0]
			c.mu.Unlock()
			return nil
		}
		nc, wc := c.nc, c.wc
		end := c.buffer[len(c.buffer)-1].end
		c.mu.Unlock()

		err := wc.WriteEvents(rows)
		c.mu.Lock()
		if err != nil {
			if c.nc == nc {
				c.live = false
			}
			c.mu.Unlock()
			nc.Close() //cdc:allow(errsink) teardown of a failed conn before reconnect
			continue
		}
		if c.nc == nc {
			c.sentThrough = end
			c.batch = c.batch[:0]
		}
		c.mu.Unlock()
		return nil
	}
}

// reconnect redials under the backoff schedule until a session is
// established, a permanent rejection or a FrontierError arrives, or
// attempts run out.
func (c *Client) reconnect() error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.Backoff.MaxAttempts; attempt++ {
		if err := c.fatalErr(); err != nil {
			return err
		}
		err := c.connect(c.readerGen.Load())
		if err == nil {
			return nil
		}
		lastErr = err
		var re *RejectedError
		var fe *FrontierError
		if errors.As(err, &re) && !re.Retryable() || errors.As(err, &fe) {
			return err
		}
		time.Sleep(c.cfg.Backoff.Delay(attempt))
	}
	return fmt.Errorf("ingestclient: gave up after %d attempts: %w", c.cfg.Backoff.MaxAttempts, lastErr)
}

// Close flushes everything, declares the stream finished, and waits for
// the server's DONE (every event durable and acked). The client is
// unusable afterwards.
func (c *Client) Close() error {
	deadline := time.Now().Add(c.cfg.AckTimeout) //cdc:allow(nodetermflow) ack timeout bounds Close; event order is fixed by server-assigned sequence numbers
	for {
		if err := c.Flush(); err != nil {
			return err
		}
		c.mu.Lock()
		live, nc, wc, offset := c.live, c.nc, c.wc, c.offset
		c.mu.Unlock()
		if !live {
			if time.Now().After(deadline) { //cdc:allow(nodetermflow) reconnect timeout during Close; event order is server-sequenced
				return errors.New("ingestclient: close timed out reconnecting")
			}
			if err := c.reconnect(); err != nil {
				return err
			}
			continue
		}
		if err := wc.WriteOffset(ingestwire.KindFinish, offset); err != nil {
			c.mu.Lock()
			if c.nc == nc {
				c.live = false
			}
			c.mu.Unlock()
			nc.Close() //cdc:allow(errsink) teardown of a failed conn before reconnect
			continue
		}
		// Wait for DONE on this connection; a conn death loops back to
		// reconnect + re-finish.
		for {
			if c.done.Load() {
				nc.Close() //cdc:allow(errsink) clean shutdown after DONE
				if got := c.doneAt.Load(); got != offset {
					return fmt.Errorf("ingestclient: server finished at offset %d, client at %d", got, offset)
				}
				return nil
			}
			if err := c.fatalErr(); err != nil {
				return err
			}
			c.mu.Lock()
			live = c.live
			c.mu.Unlock()
			if !live {
				break
			}
			if time.Now().After(deadline) { //cdc:allow(nodetermflow) ack timeout bounds Close; event order is server-sequenced
				return errors.New("ingestclient: close timed out waiting for DONE")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}
