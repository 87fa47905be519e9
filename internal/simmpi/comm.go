package simmpi

import (
	"fmt"
	"runtime"
	"time"
)

// Traffic is a rank's deterministic message accounting.
type Traffic struct {
	// SentMessages and SentBytes count outgoing point-to-point traffic
	// (payload bytes as passed to Send, including any piggyback prefix a
	// layer above added).
	SentMessages, SentBytes uint64
	// ReceivedMessages and ReceivedBytes count completions returned to
	// the caller.
	ReceivedMessages, ReceivedBytes uint64
}

// Comm is one rank's raw MPI endpoint. It implements the MPI interface.
// All methods must be called from the owning rank's goroutine.
type Comm struct {
	world    *World
	rank     int
	deadline time.Duration

	posted     fifo[Request]  // active receives, in post order
	unexpected fifo[envelope] // arrived but unmatched, in arrival order
	postSeq    uint64
	traffic    Traffic
}

// Traffic returns the rank's accounting so far. It must be called from the
// owning rank's goroutine.
func (c *Comm) Traffic() Traffic { return c.traffic }

var _ MPI = (*Comm)(nil)

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.n }

// enter is the per-MPI-call boundary: a sequencer yield point (each call
// is one schedulable step in DST mode) followed by the fault check.
func (c *Comm) enter() error {
	if seq := c.world.opts.Sequencer; seq != nil {
		if err := seq.Yield(c.rank, false); err != nil {
			return err
		}
	}
	return c.checkFault()
}

// Send copies data and deposits it in dst's mailbox.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.enter(); err != nil {
		return err
	}
	if dst < 0 || dst >= c.world.n {
		return fmt.Errorf("simmpi: send to invalid rank %d", dst)
	}
	if tag < 0 {
		return fmt.Errorf("simmpi: send with invalid tag %d", tag)
	}
	buf := append([]byte(nil), data...)
	c.traffic.SentMessages++
	c.traffic.SentBytes += uint64(len(buf))
	c.world.boxes[dst].deposit(c.rank, tag, buf)
	c.world.wake(dst)
	return nil
}

// Irecv posts a non-blocking receive.
func (c *Comm) Irecv(src, tag int) (*Request, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	if src != AnySource && (src < 0 || src >= c.world.n) {
		return nil, fmt.Errorf("simmpi: receive from invalid rank %d", src)
	}
	c.postSeq++
	req := &Request{owner: c, src: src, tag: tag, postSeq: c.postSeq}
	// MPI semantics: a newly posted receive first searches the unexpected
	// queue in arrival order.
	for i, env := range c.unexpected.live() {
		if req.accepts(env) {
			req.matched = true
			req.env = env
			c.unexpected.remove(i)
			return req, nil
		}
	}
	c.posted.push(req)
	return req, nil
}

func (r *Request) accepts(env *envelope) bool {
	return (r.src == AnySource || r.src == env.src) &&
		(r.tag == AnyTag || r.tag == env.tag)
}

// poll drains newly arrived messages and matches them against posted
// receives in post order.
func (c *Comm) poll() {
	for _, env := range c.world.boxes[c.rank].drain() {
		matched := false
		for i, req := range c.posted.live() {
			if req.accepts(env) {
				req.matched = true
				req.env = env
				c.posted.remove(i)
				matched = true
				break
			}
		}
		if !matched {
			c.unexpected.push(env)
		}
	}
}

func (c *Comm) statusOf(req *Request) Status {
	c.traffic.ReceivedMessages++
	c.traffic.ReceivedBytes += uint64(len(req.env.data))
	return Status{Source: req.env.src, Tag: req.env.tag, Data: req.env.data}
}

// Test checks one request (MPI_Test).
func (c *Comm) Test(req *Request) (bool, Status, error) {
	if err := c.enter(); err != nil {
		return false, Status{}, err
	}
	if req.consumed {
		return false, Status{}, ErrConsumed
	}
	c.poll()
	if !req.matched {
		return false, Status{}, nil
	}
	req.consumed = true
	return true, c.statusOf(req), nil
}

// Testany checks a set of requests, completing at most one (MPI_Testany).
// Among several matched requests it completes the one whose message arrived
// first.
func (c *Comm) Testany(reqs []*Request) (int, bool, Status, error) {
	if err := c.enter(); err != nil {
		return -1, false, Status{}, err
	}
	c.poll()
	best := -1
	for i, req := range reqs {
		if req.consumed || !req.matched {
			continue
		}
		if best == -1 || earlier(req, reqs[best]) {
			best = i
		}
	}
	if best == -1 {
		return -1, false, Status{}, nil
	}
	reqs[best].consumed = true
	return best, true, c.statusOf(reqs[best]), nil
}

// earlier orders two matched requests by message arrival.
func earlier(a, b *Request) bool {
	if a.env.arriveAt != b.env.arriveAt {
		return a.env.arriveAt < b.env.arriveAt
	}
	return a.env.depositSeq < b.env.depositSeq
}

// Testsome completes every matched request in the set (MPI_Testsome),
// in message-arrival order.
func (c *Comm) Testsome(reqs []*Request) ([]int, []Status, error) {
	if err := c.enter(); err != nil {
		return nil, nil, err
	}
	c.poll()
	return c.gatherMatched(reqs)
}

func (c *Comm) gatherMatched(reqs []*Request) ([]int, []Status, error) {
	var idxs []int
	for i, req := range reqs {
		if !req.consumed && req.matched {
			idxs = append(idxs, i)
		}
	}
	// Report completions in arrival order so the observed order the tool
	// stack records matches delivery, not request-slot order.
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && earlier(reqs[idxs[j]], reqs[idxs[j-1]]); j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	sts := make([]Status, len(idxs))
	for k, i := range idxs {
		reqs[i].consumed = true
		sts[k] = c.statusOf(reqs[i])
	}
	return idxs, sts, nil
}

// Testall completes all requests if every one is matched (MPI_Testall).
func (c *Comm) Testall(reqs []*Request) (bool, []Status, error) {
	if err := c.enter(); err != nil {
		return false, nil, err
	}
	c.poll()
	for _, req := range reqs {
		if req.consumed {
			return false, nil, ErrConsumed
		}
		if !req.matched {
			return false, nil, nil
		}
	}
	sts := make([]Status, len(reqs))
	for i, req := range reqs {
		req.consumed = true
		sts[i] = c.statusOf(req)
	}
	return true, sts, nil
}

// spinWait polls until cond holds or the deadline passes. Under a sequencer
// every loop iteration is a yield point: the rank reports itself blocked only
// when its mailbox has no undelivered messages — if messages are in flight it
// must keep getting scheduled so its polls advance the mailbox tick.
func (c *Comm) spinWait(cond func() bool) error {
	seq := c.world.opts.Sequencer
	start := time.Now() //cdc:allow(nodetermflow) spin-wait deadline guards liveness only; match order comes from the sequencer
	spins := 0
	for !cond() {
		if c.world.aborted.Load() {
			return c.checkFault()
		}
		if seq != nil {
			blocked := c.world.boxes[c.rank].pending() == 0
			if err := seq.Yield(c.rank, blocked); err != nil {
				return err
			}
			continue
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
		if !c.world.opts.VirtualTime && spins%4096 == 0 && time.Since(start) > c.deadline { //cdc:allow(nodetermflow) deadline check for liveness, disabled under virtual time; match order is sequenced
			return fmt.Errorf("%w: rank %d, %d message(s) in flight",
				ErrTimeout, c.rank, c.world.boxes[c.rank].pending())
		}
	}
	return nil
}

// Wait blocks until the request completes (MPI_Wait).
func (c *Comm) Wait(req *Request) (Status, error) {
	if err := c.enter(); err != nil {
		return Status{}, err
	}
	if req.consumed {
		return Status{}, ErrConsumed
	}
	if err := c.spinWait(func() bool { c.poll(); return req.matched }); err != nil {
		return Status{}, err
	}
	req.consumed = true
	return c.statusOf(req), nil
}

// Waitany blocks until one request completes (MPI_Waitany).
func (c *Comm) Waitany(reqs []*Request) (int, Status, error) {
	var (
		idx int
		ok  bool
		st  Status
		err error
	)
	werr := c.spinWait(func() bool {
		idx, ok, st, err = c.Testany(reqs)
		return ok || err != nil
	})
	if werr != nil {
		return -1, Status{}, werr
	}
	return idx, st, err
}

// Waitsome blocks until at least one request completes, then returns all
// completed (MPI_Waitsome).
func (c *Comm) Waitsome(reqs []*Request) ([]int, []Status, error) {
	var (
		idxs []int
		sts  []Status
		err  error
	)
	werr := c.spinWait(func() bool {
		idxs, sts, err = c.Testsome(reqs)
		return len(idxs) > 0 || err != nil
	})
	if werr != nil {
		return nil, nil, werr
	}
	return idxs, sts, err
}

// Waitall blocks until every request completes (MPI_Waitall). Statuses are
// returned in request order, as MPI does.
func (c *Comm) Waitall(reqs []*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	for i, req := range reqs {
		st, err := c.Wait(req)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	return sts, nil
}

// Barrier blocks until every rank arrives.
func (c *Comm) Barrier() error {
	if err := c.enter(); err != nil {
		return err
	}
	return c.world.coll.barrier(c)
}

// Allreduce reduces v across all ranks with op.
func (c *Comm) Allreduce(v float64, op ReduceOp) (float64, error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	return c.world.coll.allreduce(c, v, op)
}

// Reduce reduces v across all ranks; only root sees the result.
func (c *Comm) Reduce(v float64, op ReduceOp, root int) (float64, error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	if root < 0 || root >= c.world.n {
		return 0, fmt.Errorf("simmpi: reduce to invalid root %d", root)
	}
	out, err := c.world.coll.allreduce(c, v, op)
	if err != nil {
		return 0, err
	}
	if c.rank != root {
		return 0, nil
	}
	return out, nil
}

// Bcast distributes root's data to every rank.
func (c *Comm) Bcast(data []byte, root int) ([]byte, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.world.n {
		return nil, fmt.Errorf("simmpi: bcast from invalid root %d", root)
	}
	return c.world.coll.bcast(c, data, root)
}

// Gather collects every rank's v at root.
func (c *Comm) Gather(v float64, root int) ([]float64, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.world.n {
		return nil, fmt.Errorf("simmpi: gather to invalid root %d", root)
	}
	out, err := c.world.coll.gather(c, v)
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return out, nil
}

// Allgather collects every rank's v at every rank.
func (c *Comm) Allgather(v float64) ([]float64, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	return c.world.coll.gather(c, v)
}
