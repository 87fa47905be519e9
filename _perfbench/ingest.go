package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cdcreplay/cdc"
	"cdcreplay/internal/ingestclient"
	"cdcreplay/internal/ingestd"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

// ackPoll is how often a session's ack watcher samples Client.Acked.
const ackPoll = 200 * time.Microsecond

// stallLimit is how long a phase may go without any session's acked
// frontier advancing before the repetition fails as stalled. It is longer
// than the daemon's 30s idle timeout, after which a session stuck without
// inbound frames is reaped and its client resumes on a new connection, so
// a stall the program recovers from shows as a slow repetition, and only
// one it never recovers from fails.
const stallLimit = 40 * time.Second

const ingestTenant = "bench"

// ingestBench is the ingest workload: an in-process daemon (dir layout)
// on loopback, fed by one ingestclient session per GOMAXPROCS thread.
type ingestBench struct {
	cfg  config
	dir  string
	rate float64 // offered logical events per second per open-loop session

	openEvents, burstEvents int // matched events per session and phase

	openRows  [][]ingestwire.Row
	burstRows [][]ingestwire.Row

	// daemon serves untraced repetitions; traced ones go to tracedDaemon,
	// whose obs registry and store probe report to the tracer.
	daemon, tracedDaemon *daemon
	props                map[string]any
}

// daemon is one running ingestd.Server over its own record root.
type daemon struct {
	srv   *ingestd.Server
	root  string
	reg   *obs.Registry
	probe *storeProbe
}

func startDaemon(root string, workers int, reg *obs.Registry) (*daemon, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	probe := newStoreProbe(nil)
	srv, err := ingestd.New(ingestd.Config{
		Addr:    "127.0.0.1:0",
		Store:   probedRoot{Root: dirstore.OpenRoot(root), p: probe},
		Workers: workers,
		Obs:     reg,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &daemon{srv: srv, root: root, reg: reg, probe: probe}, nil
}

// stop drains the daemon, killing it if the drain does not finish.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		d.srv.Kill()
		return err
	}
	return nil
}

// store opens one run of the daemon's root for reading, bypassing the
// probe so oracle reads stay out of the per-layer sums.
func (d *daemon) store(run string) (store.Store, error) {
	return dirstore.OpenRoot(d.root).Open(ingestTenant + "/" + run)
}

func newIngest(cfg config, dir string) (bench, error) {
	b := &ingestBench{cfg: cfg, dir: dir, rate: 100_000, openEvents: 100_000, burstEvents: 300_000}
	if cfg.scale == "tiny" {
		b.rate, b.openEvents, b.burstEvents = 20_000, 2000, 5000
	}
	b.openRows, b.burstRows = b.generate()
	var err error
	if b.daemon, err = startDaemon(filepath.Join(dir, "plain"), cfg.workers, nil); err != nil {
		return nil, err
	}
	if cfg.trace {
		if b.tracedDaemon, err = startDaemon(filepath.Join(dir, "traced"), cfg.workers, obs.NewRegistry()); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// generate makes every session's open-loop and burst rows from the seed,
// one session per GOMAXPROCS thread. Sessions are single-rank runs: every
// event's sender is the rank itself, so the daemon's cross-rank ack
// barrier never waits on a peer.
func (b *ingestBench) generate() (open, burst [][]ingestwire.Row) {
	for i := 0; i < b.cfg.workers; i++ {
		open = append(open, streamRows(b.openEvents, 1, b.cfg.seed*1_000_003+int64(2*i)))
		burst = append(burst, streamRows(b.burstEvents, 1, b.cfg.seed*1_000_003+int64(2*i+1)))
	}
	return open, burst
}

func (b *ingestBench) close() error {
	err := errors.Join(b.daemon.stop(), b.tracedDaemon.stop())
	return errors.Join(err, os.RemoveAll(b.dir))
}

func (b *ingestBench) inputs() map[string]any { return b.props }

// session is one client stream of a phase.
type session struct {
	run    string
	rows   []ingestwire.Row
	client *ingestclient.Client
	// Open loop: when each row was due and when its ack arrived.
	due, sent, acked []int64
	// Traced client-side time.
	observeNs, flushNs, closeNs int64
	err                         error
	done                        chan struct{}
	// THROTTLE transitions the client saw, and the last one.
	throttleOn, throttleOff atomic.Uint64
	throttled               atomic.Bool
	// next is the index of the row being offered.
	next atomic.Int64
}

func (b *ingestBench) dial(d *daemon, run string, rows []ingestwire.Row) (*session, error) {
	s := &session{run: run, rows: rows, done: make(chan struct{})}
	c, err := ingestclient.Dial(ingestclient.Config{
		Addr: d.srv.Addr(), Tenant: ingestTenant, Run: run, Rank: 0, Ranks: 1,
		OnThrottle: func(on bool) {
			if on {
				s.throttleOn.Add(1)
			} else {
				s.throttleOff.Add(1)
			}
			s.throttled.Store(on)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", run, err)
	}
	s.client = c
	return s, nil
}

// runSessions runs send on every session concurrently and waits until all
// return, or until no session's acked frontier has advanced for
// stallLimit. A stalled session's goroutine is left blocked in the client:
// the repetition fails and the run ends, which stops it.
func runSessions(ss []*session, send func(*session) error) error {
	for _, s := range ss {
		go func(s *session) {
			defer close(s.done)
			s.err = send(s)
		}(s)
	}
	var last uint64
	lastMove := now()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for _, s := range ss {
		for waiting := true; waiting; {
			select {
			case <-s.done:
				waiting = false
			case <-tick.C:
				var acked uint64
				for _, o := range ss {
					acked += o.client.Acked()
				}
				if acked != last {
					last, lastMove = acked, now()
				} else if now()-lastMove > int64(stallLimit) {
					return stallError(ss)
				}
			}
		}
	}
	var errs []error
	for _, s := range ss {
		errs = append(errs, s.err)
	}
	return errors.Join(errs...)
}

// stallError describes every session still running when a phase stalled.
func stallError(ss []*session) error {
	var errs []error
	for _, s := range ss {
		select {
		case <-s.done:
			continue
		default:
		}
		_, _, w := rowCounts(s.rows)
		i := int(s.next.Load())
		_, _, offered := rowCounts(s.rows[:i])
		openGroup := i > 0 && s.rows[i-1].Ev.Flag && s.rows[i-1].Ev.WithNext
		errs = append(errs, fmt.Errorf("%s stalled: no ack progress for %v; acked %d of %d events; "+
			"blocked offering row %d with %d events offered before it (%d unacked); "+
			"the row before it opens a multi-completion group: %v; "+
			"client saw %d THROTTLE on / %d off (throttled now: %v); %d resumes",
			s.run, stallLimit, s.client.Acked(), w, i, offered, offered-s.client.Acked(), openGroup,
			s.throttleOn.Load(), s.throttleOff.Load(), s.throttled.Load(), s.client.Resumes()))
	}
	return errors.Join(errs...)
}

func (b *ingestBench) rep(tr *tracer, n int) repOut {
	out := repOut{values: make(map[string]float64)}
	d := b.daemon
	if tr != nil {
		d = b.tracedDaemon
	}
	d.probe.trace.Store(tr)
	defer d.probe.trace.Store(nil)
	var before obs.Snapshot
	if d.reg != nil {
		before = d.reg.Snapshot()
	}
	root := tr.start("ingest.rep", 0)
	defer root.end()

	// Plain: the event source alone.
	settle()
	c0 := cpuNow()
	openGen, burstGen := b.generate()
	out.values["plain_s"] = cpuSince(c0)
	if len(openGen[0]) != len(b.openRows[0]) || len(burstGen[0]) != len(b.burstRows[0]) {
		out.err = errors.New("regenerated rows differ from set-up's")
		return out
	}

	var all []*session
	// Open loop at a fixed offered rate.
	open, err := b.openLoop(d, tr, root.id, n)
	all = append(all, open...)
	if err != nil {
		out.err = fmt.Errorf("open loop: %w", err)
		return out
	}
	var ack []float64
	for _, s := range open {
		for i, r := range s.rows {
			if r.Ev.Flag {
				ack = append(ack, float64(s.acked[i]-s.due[i])/1e6)
			}
			tr.sample("ingest.gen_late_ms", float64(s.sent[i]-s.due[i])/1e6)
		}
	}
	lat := summarize(ack)
	out.values["ack_p50_ms"] = lat.P50
	out.values["ack_p99_ms"] = lat.P99
	out.values["ack_max_ms"] = lat.Max
	out.values["ack_samples"] = float64(lat.N)

	// Closed-loop burst at full speed.
	c0 = cpuNow()
	burst, burstNs, err := b.burst(d, tr, root.id, n)
	burstCPU := cpuSince(c0)
	all = append(all, burst...)
	if err != nil {
		out.err = fmt.Errorf("burst: %w", err)
		return out
	}
	var burstWeight uint64
	for _, s := range burst {
		_, _, w := rowCounts(s.rows)
		burstWeight += w
	}
	out.values["record_s"] = burstCPU
	out.values["ingest_events_per_s"] = float64(burstWeight) / (float64(burstNs) / 1e9)

	// Oracle: every session acked exactly what it offered, and its record
	// decodes to exactly its rows.
	var matched, unmatched, size uint64
	stores := make([]cdc.Store, len(all))
	for i, s := range all {
		m, u, w := rowCounts(s.rows)
		matched += m
		unmatched += u
		if got := s.client.Acked(); got != w {
			out.err = fmt.Errorf("%s: acked %d of %d offered events", s.run, got, w)
			return out
		}
		st, err := d.store(s.run)
		if err != nil {
			out.err = err
			return out
		}
		if _, err := store.Open(st, "", 1); err != nil {
			out.err = fmt.Errorf("%s: %w", s.run, err)
			return out
		}
		if err := ingestd.VerifyRank(st, 0, s.rows); err != nil {
			out.err = fmt.Errorf("%s: %w", s.run, err)
			return out
		}
		blob, err := st.OpenRank(0)
		if err != nil {
			out.err = err
			return out
		}
		size += uint64(blob.Size())
		blob.Close()
		stores[i] = probedStore{Store: st, p: d.probe}
	}
	out.values["bytes_per_event"] = float64(size) / float64(matched)

	// Read back and replay every session's record.
	events, _, secs, err := timedReadBack(stores, 1, tr, root.id, float64(size))
	if err != nil {
		out.err = fmt.Errorf("decode: %w", err)
		return out
	}
	if events != matched {
		out.err = fmt.Errorf("decode: read %d events, offered %d", events, matched)
		return out
	}
	out.values["decode_s"] = secs
	events, secs, err = timedFeedBack(stores, 1, b.cfg.workers, tr, root.id)
	if err != nil {
		out.err = fmt.Errorf("replay: %w", err)
		return out
	}
	if events != matched {
		out.err = fmt.Errorf("replay: released %d events, offered %d", events, matched)
		return out
	}
	out.values["replay_s"] = secs

	if tr != nil {
		after := d.reg.Snapshot()
		tr.addObs(snapshotDelta(before, after))
	}
	var openWeight uint64
	for _, s := range open {
		_, _, w := rowCounts(s.rows)
		openWeight += w
	}
	b.props = map[string]any{
		"sessions":                len(b.openRows),
		"open_loop_offered_per_s": b.rate * float64(len(b.openRows)),
		"open_loop_events":        openWeight,
		"burst_events":            burstWeight,
		"matched_events":          matched,
		"rows":                    b.rowsOf(all),
		"permuted_share_pct":      0.0, // single-sender streams arrive in order
		"unmatched_test_share":    float64(unmatched) / float64(unmatched+matched),
		"messages":                matched,
		"layout":                  store.LayoutDir,
		"daemon_workers":          b.cfg.workers,
		"open_loop_phase":         "open loop, fixed offered event rate, latency from due time",
		"burst_phase":             "closed loop, full speed",
	}
	return out
}

func (b *ingestBench) rowsOf(ss []*session) int {
	n := 0
	for _, s := range ss {
		n += len(s.rows)
	}
	return n
}

// openLoop runs one session per open-loop row set, each sending its rows
// on a fixed schedule of b.rate logical events per second whatever the
// daemon does, and records when each row was due, sent and acked.
func (b *ingestBench) openLoop(d *daemon, tr *tracer, parent uint64, n int) ([]*session, error) {
	var ss []*session
	for i, rows := range b.openRows {
		s, err := b.dial(d, fmt.Sprintf("r%d-open-%d", n, i), rows)
		if err != nil {
			return ss, err
		}
		ss = append(ss, s)
	}
	sp := tr.start("ingest.open_loop", parent)
	defer sp.end()
	start := now()
	return ss, runSessions(ss, func(s *session) error { return b.sendOpen(s, start) })
}

// sendOpen sends one session's rows on schedule, then waits for every ack
// and closes the session. An ack watcher stamps each row's ack time.
func (b *ingestBench) sendOpen(s *session, start int64) error {
	s.due = make([]int64, len(s.rows))
	s.sent = make([]int64, len(s.rows))
	s.acked = make([]int64, len(s.rows))
	ends := make([]uint64, len(s.rows))
	var offset uint64
	for i, r := range s.rows {
		s.due[i] = start + int64(float64(offset)/b.rate*1e9)
		offset += r.Weight()
		ends[i] = offset
	}
	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() { watched <- watchAcks(s.client, ends, s.acked, stop) }()

	var err error
	for i, r := range s.rows {
		if wait := s.due[i] - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		s.next.Store(int64(i))
		s.sent[i] = now()
		if err = s.client.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
			break
		}
	}
	if err == nil {
		err = s.client.Flush()
	}
	if err != nil {
		close(stop)
		<-watched
		return err
	}
	if err := <-watched; err != nil {
		return err
	}
	return s.client.Close()
}

// watchAcks polls the client's acked frontier until it covers every row,
// stamping each row's ack time, or until stop closes or ackWait passes
// with no progress.
func watchAcks(c *ingestclient.Client, ends []uint64, ackedAt []int64, stop <-chan struct{}) error {
	j := 0
	last := now()
	for j < len(ends) {
		a := c.Acked()
		t := now()
		if j < len(ends) && ends[j] <= a {
			last = t
		}
		for j < len(ends) && ends[j] <= a {
			ackedAt[j] = t
			j++
		}
		if j == len(ends) {
			return nil
		}
		if t-last > int64(stallLimit) {
			return fmt.Errorf("no ack progress for %v at %d of %d events", stallLimit, a, ends[len(ends)-1])
		}
		select {
		case <-stop:
			return errors.New("stopped")
		case <-time.After(ackPoll):
		}
	}
	return nil
}

// burst runs every burst session at full speed from a common start and
// returns the wall time until the last session's Close (every event
// acked) returned.
func (b *ingestBench) burst(d *daemon, tr *tracer, parent uint64, n int) ([]*session, int64, error) {
	var ss []*session
	for i, rows := range b.burstRows {
		s, err := b.dial(d, fmt.Sprintf("r%d-burst-%d", n, i), rows)
		if err != nil {
			return ss, 0, err
		}
		ss = append(ss, s)
	}
	sp := tr.start("ingest.burst", parent)
	start := now()
	err := runSessions(ss, func(s *session) error { return sendBurst(s, tr != nil) })
	wall := now() - start
	sp.end()
	if err != nil {
		return ss, wall, err
	}
	var slowest int64
	for _, s := range ss {
		busy := s.observeNs + s.flushNs + s.closeNs
		if busy > slowest {
			slowest = busy
		}
		tr.add("ingest.observe.ns", float64(s.observeNs))
		tr.add("ingest.flush.ns", float64(s.flushNs))
		tr.add("ingest.close.ns", float64(s.closeNs))
	}
	tr.add("wall.record.ns", float64(wall))
	tr.add("remainder.record.ns", float64(wall-slowest))
	return ss, wall, nil
}

// sendBurst sends every row as fast as the client accepts them, then
// closes (which waits for every ack). With timed set it times each call.
func sendBurst(s *session, timed bool) error {
	c := s.client
	if !timed {
		for i, r := range s.rows {
			s.next.Store(int64(i))
			if err := c.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
				return err
			}
		}
		if err := c.Flush(); err != nil {
			return err
		}
		return c.Close()
	}
	t := now()
	for i, r := range s.rows {
		s.next.Store(int64(i))
		if err := c.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
			return err
		}
		t1 := now()
		s.observeNs += t1 - t
		t = t1
	}
	err := c.Flush()
	t1 := now()
	s.flushNs += t1 - t
	if err != nil {
		return err
	}
	err = c.Close()
	s.closeNs += now() - t1
	return err
}

// snapshotDelta is after minus before for counters and histogram sums;
// gauges keep after's values (their maxima are run-wide).
func snapshotDelta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{
		Counters:   make(map[string]uint64, len(after.Counters)),
		Gauges:     after.Gauges,
		Histograms: make(map[string]obs.HistogramSnapshot, len(after.Histograms)),
	}
	for name, v := range after.Counters {
		d.Counters[name] = v - before.Counters[name]
	}
	for name, h := range after.Histograms {
		bh := before.Histograms[name]
		h.Sum -= bh.Sum
		h.Count -= bh.Count
		d.Histograms[name] = h
	}
	return d
}
