package ingestd

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/spsc"
)

// session is one client connection carrying one (tenant, run, rank)
// stream. Its reader goroutine (the accept handler) parses frames and
// enqueues rows; the owning worker drains the queue into the run's
// encoder. The two sides meet only at the spsc queue and a handful of
// atomics, so a stalled encoder never blocks frame parsing until the
// queue itself fills — at which point the reader throttles the client and
// blocks, pushing backpressure into the TCP window.
type session struct {
	id     uint64
	srv    *Server
	nc     net.Conn
	wc     *ingestwire.Conn
	tenant *tenantState
	run    *run
	rs     *rankState
	worker *worker
	q      *spsc.Queue[ingestwire.Row]

	// wmu serializes frame writes: the reader sends THROTTLE(on), the
	// worker sends ACK/THROTTLE(off)/DONE, the server sends DRAIN.
	wmu sync.Mutex

	dead         atomic.Bool
	welcomed     atomic.Bool
	finished     atomic.Bool
	finishOffset atomic.Uint64
	throttled    atomic.Bool

	// lastAck and doneSent are worker-side state (no locking needed).
	lastAck  uint64
	doneSent bool
}

// writeFrame runs fn against the framed conn under the write mutex and a
// fresh write deadline, so one stuck client cannot wedge a worker.
func (s *session) writeFrame(fn func(*ingestwire.Conn) error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.nc.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout)) //cdc:allow(errsink) deadline set on live conn; write reports failure
	return fn(s.wc)
}

func (s *session) sendReject(kind byte, rej ingestwire.Reject) {
	s.srv.rejects.Inc()
	s.writeFrame(func(c *ingestwire.Conn) error { //cdc:allow(errsink) conn is being torn down
		return c.WriteReject(kind, rej)
	})
}

// readLoop consumes the session's frames until the connection dies or the
// client misbehaves. It runs on the accept handler's goroutine.
func (s *session) readLoop() {
	defer func() {
		s.dead.Store(true)
		s.q.Close()
		s.nc.Close() //cdc:allow(errsink) teardown of a dead conn
		s.worker.wake()
	}()
	for {
		s.nc.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout)) //cdc:allow(errsink) deadline set on live conn; read reports failure
		kind, payload, err := s.wc.ReadFrame()
		if err != nil {
			return
		}
		switch kind {
		case ingestwire.KindEvents:
			rows, err := ingestwire.DecodeRows(payload)
			if err != nil {
				s.sendReject(ingestwire.KindError, ingestwire.Reject{
					Code: ingestwire.RejectMalformed, Msg: err.Error()})
				return
			}
			s.tenant.bytes.Add(uint64(len(payload)))
			if d := s.tenant.pace(len(payload), time.Now()); d > 0 {
				time.Sleep(d)
			}
			if !s.enqueue(rows) {
				return
			}
			s.worker.wake()
		case ingestwire.KindFinish:
			off, err := ingestwire.ParseOffset(payload)
			if err != nil {
				s.sendReject(ingestwire.KindError, ingestwire.Reject{
					Code: ingestwire.RejectMalformed, Msg: err.Error()})
				return
			}
			s.finishOffset.Store(off)
			s.finished.Store(true)
			s.worker.wake()
			// Keep reading: the client holds the conn open for DONE and
			// then closes, which lands here as EOF.
		default:
			s.sendReject(ingestwire.KindError, ingestwire.Reject{
				Code: ingestwire.RejectMalformed, Msg: "unexpected frame kind"})
			return
		}
	}
}

// enqueue pushes a batch of rows, throttling the client the moment the
// bounded queue sheds. The failed TryEnqueue is what drives backpressure:
// it flips the throttle exactly once per episode, and the subsequent
// blocking Enqueue stops frame intake so the kernel's TCP window does the
// rest. Returns false when the queue closed under us (server kill).
func (s *session) enqueue(rows []ingestwire.Row) bool {
	start := time.Now()
	for _, row := range rows {
		if s.q.TryEnqueue(row) {
			continue
		}
		if !s.throttled.Load() {
			s.setThrottle(true)
		}
		if !s.q.Enqueue(row) {
			return false
		}
	}
	s.srv.enqueueHist.ObserveDuration(time.Since(start))
	return true
}

// maybeUnthrottle lifts the client's throttle once its queue has drained
// below a quarter of capacity. Worker-side.
func (s *session) maybeUnthrottle() {
	if s.throttled.Load() && s.q.Len() < s.q.Cap()/4 {
		s.setThrottle(false)
	}
}

// setThrottle flips the throttle flag and tells the client. The flip
// happens under the write mutex, so THROTTLE frames reach the client in
// the order the flag changed. Flipped outside it, a reader's "on" could
// be overtaken by the worker's "off" for the same episode, leaving a
// client that has stopped sending on a session the daemon considers open
// until the idle timeout reaps it.
func (s *session) setThrottle(on bool) {
	s.writeFrame(func(c *ingestwire.Conn) error { //cdc:allow(errsink) advisory frame; conn failure surfaces on next read
		if !s.throttled.CompareAndSwap(!on, on) {
			return nil
		}
		if on {
			s.srv.throttles.Inc()
		}
		return c.WriteThrottle(on)
	})
}
