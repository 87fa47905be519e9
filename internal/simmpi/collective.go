package simmpi

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// collectives implements Barrier and Allreduce with a reusable
// generation-counting barrier. The reduction folds contributions in rank
// order, so the floating-point result is a deterministic function of the
// contributed values — exactly why tool layers treat collectives as
// deterministic events that need no recording (paper §6.3 discussion).
// Summing in arrival order instead would reintroduce run-to-run numeric
// variation through non-associativity.
type collectives struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
	vals    []float64
	op      ReduceOp
	result  float64
	// payload carries Bcast data; gathered carries per-rank values for
	// Gather/Allgather. Both are (re)built by the completing rank.
	payload  []byte
	gathered []float64
	// aborted points at the world's abort flag; ranks blocked in a
	// collective observe it instead of waiting forever for a killed rank.
	aborted *atomic.Bool
}

func newCollectives(n int) *collectives {
	c := &collectives{n: n, vals: make([]float64, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collectives) barrier(cm *Comm) error {
	_, err := c.sync(cm, 0, OpSum, false)
	return err
}

func (c *collectives) allreduce(cm *Comm, v float64, op ReduceOp) (float64, error) {
	return c.sync(cm, v, op, true)
}

// bcast distributes root's data; implemented as a publish + barrier pair
// so the payload cannot be overwritten by a subsequent collective before
// every rank copied it.
func (c *collectives) bcast(cm *Comm, data []byte, root int) ([]byte, error) {
	if cm.rank == root {
		c.mu.Lock()
		c.payload = append([]byte(nil), data...)
		c.mu.Unlock()
	}
	if err := c.barrier(cm); err != nil {
		return nil, err
	}
	c.mu.Lock()
	out := append([]byte(nil), c.payload...)
	c.mu.Unlock()
	if err := c.barrier(cm); err != nil {
		return nil, err
	}
	return out, nil
}

// gather collects per-rank values; every rank receives the full slice and
// the caller decides root visibility.
func (c *collectives) gather(cm *Comm, v float64) ([]float64, error) {
	c.mu.Lock()
	if c.gathered == nil {
		c.gathered = make([]float64, c.n)
	}
	c.gathered[cm.rank] = v
	c.mu.Unlock()
	if err := c.barrier(cm); err != nil {
		return nil, err
	}
	c.mu.Lock()
	out := append([]float64(nil), c.gathered...)
	c.mu.Unlock()
	if err := c.barrier(cm); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *collectives) sync(cm *Comm, v float64, op ReduceOp, reduce bool) (float64, error) {
	seq := cm.world.opts.Sequencer

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted != nil && c.aborted.Load() {
		return 0, ErrAborted
	}
	gen := c.gen
	if c.arrived == 0 {
		c.op = op
	}
	if reduce {
		c.vals[cm.rank] = v
	}
	c.arrived++
	if c.arrived == c.n {
		acc := identity(c.op)
		if reduce {
			for _, x := range c.vals {
				acc = combine(c.op, acc, x)
			}
		}
		c.result = acc
		c.arrived = 0
		c.gen++
		c.cond.Broadcast()
		if seq != nil {
			seq.WakeAll()
		}
		return c.result, nil
	}
	// This rank blocks. Without a sequencer, arm the endpoint's one
	// liveness timer (the last arriver above never waits, so it never arms
	// one).
	var start time.Time
	if seq == nil {
		start = time.Now() //cdc:allow(nodetermflow) wall clock bounds the collective wait for liveness; delivery order comes from the mailbox tick
		cm.armCollTimer(c)
		defer cm.collTimer.Stop()
	}
	for c.gen == gen {
		if c.aborted != nil && c.aborted.Load() {
			return 0, ErrAborted
		}
		if seq != nil {
			// A collective waiter cannot poll its mailbox, so it is truly
			// blocked until the last arrival's WakeAll (or an abort). The
			// mutex is released across the yield: the completing rank needs
			// it, and the sequencer must not grant anyone while we hold it.
			c.mu.Unlock()
			err := seq.Yield(cm.rank, true)
			c.mu.Lock()
			if err != nil {
				return 0, err
			}
			continue
		}
		if time.Since(start) > cm.deadline { //cdc:allow(nodetermflow) deadline check for liveness; the collective's delivery order is tick-driven
			return 0, ErrTimeout
		}
		c.cond.Wait()
	}
	return c.result, nil
}

// armCollTimer schedules a wake of c's sleepers after the endpoint's
// deadline, so a rank blocked in a collective observes its timeout. The
// timer is created on the rank's first blocking collective and Reset on
// each later one. The wake takes c.mu, so it cannot fall between a
// sleeper's deadline check and its cond.Wait; a stale wake from an earlier
// collective is a spurious one, which the generation check absorbs.
func (cm *Comm) armCollTimer(c *collectives) {
	if cm.collTimer == nil {
		cm.collTimer = time.AfterFunc(cm.deadline, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		return
	}
	cm.collTimer.Reset(cm.deadline)
}

func identity(op ReduceOp) float64 {
	switch op {
	case OpMax:
		return math.Inf(-1)
	case OpMin:
		return math.Inf(1)
	default:
		return 0
	}
}

func combine(op ReduceOp, a, b float64) float64 {
	switch op {
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	default:
		return a + b
	}
}
