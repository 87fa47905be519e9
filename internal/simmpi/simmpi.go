// Package simmpi is an in-process message-passing runtime that stands in for
// MPI in this reproduction (DESIGN.md substitution S1).
//
// Each rank runs as a goroutine. The runtime reproduces the MPI semantics
// that CDC depends on:
//
//   - non-blocking receives (Irecv) with MPI_ANY_SOURCE / MPI_ANY_TAG
//     wildcards, matched against posted-receive and unexpected-message
//     queues in MPI's required order;
//   - per-(sender,receiver) FIFO non-overtaking: messages from the same
//     sender are matched in send order;
//   - the Test and Wait matching-function (MF) families, including
//     multi-completion Testsome/Waitsome (the paper's with_next case) and
//     unmatched Test calls (the paper's unmatched-test rows);
//   - genuinely non-deterministic cross-sender arrival order, produced by a
//     per-message delivery jitter drawn from a noise model on top of the
//     already non-deterministic goroutine schedule.
//
// Sends are buffered-eager: Send copies the payload and completes
// immediately, which matches the small-message behaviour MCB relies on and
// means only receive events are non-deterministic — the property the
// paper's order-replay approach assumes (Definition 7).
//
// Tool layers (Lamport clocks, the CDC recorder and replayer) wrap the MPI
// interface the way PMPI/PnMPI modules wrap MPI calls: the application is
// written against MPI and is oblivious to the stack above the raw Comm.
package simmpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/obs"
)

// AnySource matches a receive against messages from any rank
// (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag matches a receive against messages with any tag (MPI_ANY_TAG).
const AnyTag = -1

// Status describes a completed receive, like MPI_Status plus the received
// payload and the piggybacked Lamport clock (filled in by the lamport
// layer; zero at the raw layer).
type Status struct {
	Source int
	Tag    int
	Clock  uint64
	Data   []byte
}

// Request is a receive request handle created by Irecv. Handles flow through
// tool layers unchanged; layers attach their own per-request state
// externally.
type Request struct {
	owner    *Comm
	src, tag int
	matched  bool
	consumed bool
	env      envelope
	postSeq  uint64
}

// Matched reports whether the request has been matched to a message at the
// MPI level. Tool layers use it to peek; applications should use Test.
func (r *Request) Matched() bool { return r.matched }

// Spec returns the (source, tag) pattern the receive was posted with.
// Tool layers use it to decide request interchangeability: MPI binds an
// incoming message to whichever matching posted receive came first, so two
// receives with identical specs are indistinguishable to the application.
func (r *Request) Spec() (src, tag int) { return r.src, r.tag }

// Accepts reports whether a message with the given source and tag could
// have matched this request's spec.
func (r *Request) Accepts(source, tag int) bool {
	return (r.src == AnySource || r.src == source) &&
		(r.tag == AnyTag || r.tag == tag)
}

// ErrConsumed is returned when a request that already completed is tested
// or waited on again.
var ErrConsumed = errors.New("simmpi: request already completed")

// ErrTimeout is returned by blocking operations that exceed the world's
// wait timeout — almost always an application deadlock.
var ErrTimeout = errors.New("simmpi: wait timed out (deadlock?)")

// MPI is the interface applications are written against, and the interface
// every tool layer both consumes and implements (the PMPI analog).
//
// All calls for one rank must come from that rank's goroutine, mirroring
// MPI_THREAD_FUNNELED.
//
// Result lifetime: the index and status slices returned by Testsome,
// Waitsome, Testall and Waitall belong to the rank's endpoint, like MPI's
// caller-provided array_of_indices and array_of_statuses. They stay valid
// until the rank's next Test- or Wait-family call, which may overwrite
// them; a caller that keeps results longer copies them. Status.Data is
// not covered by the rule: a payload is never reused.
type MPI interface {
	// Rank returns the calling process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int

	// Send transmits data to rank dst with the given tag. It is
	// buffered-eager: the payload is copied and the call returns
	// immediately (matching MPI_Isend of a small message followed
	// eventually by a trivially-successful wait).
	Send(dst, tag int, data []byte) error

	// Irecv posts a non-blocking receive for a message from src (or
	// AnySource) with tag (or AnyTag).
	Irecv(src, tag int) (*Request, error)

	// Test checks a single request (MPI_Test). On success the request is
	// consumed.
	Test(req *Request) (bool, Status, error)
	// Testany checks a set and completes at most one (MPI_Testany),
	// returning its index.
	Testany(reqs []*Request) (int, bool, Status, error)
	// Testsome completes every currently-matched request in the set
	// (MPI_Testsome). An empty result is an unmatched test.
	Testsome(reqs []*Request) ([]int, []Status, error)
	// Testall completes the whole set if every request is matched
	// (MPI_Testall), returning statuses in request order; otherwise it
	// completes none and reports false.
	Testall(reqs []*Request) (bool, []Status, error)

	// Wait blocks until the request completes (MPI_Wait).
	Wait(req *Request) (Status, error)
	// Waitany blocks until one request in the set completes.
	Waitany(reqs []*Request) (int, Status, error)
	// Waitsome blocks until at least one completes, then returns all
	// completed.
	Waitsome(reqs []*Request) ([]int, []Status, error)
	// Waitall blocks until every request in the set completes, returning
	// statuses in request order.
	Waitall(reqs []*Request) ([]Status, error)

	// Barrier blocks until every rank has entered it.
	Barrier() error
	// Allreduce computes the global reduction of v with op and returns
	// the result on every rank.
	Allreduce(v float64, op ReduceOp) (float64, error)
	// Reduce computes the global reduction of v with op; only root
	// receives the result (others get 0), like MPI_Reduce.
	Reduce(v float64, op ReduceOp, root int) (float64, error)
	// Bcast distributes root's data to every rank (MPI_Bcast).
	Bcast(data []byte, root int) ([]byte, error)
	// Gather collects every rank's v at root, indexed by rank; non-root
	// ranks get nil (MPI_Gather).
	Gather(v float64, root int) ([]float64, error)
	// Allgather collects every rank's v at every rank (MPI_Allgather).
	Allgather(v float64) ([]float64, error)
}

// ReduceOp selects the Allreduce reduction operator.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Sequencer serializes rank execution for deterministic schedule
// exploration (DST, internal/dst). When a world has one, every rank parks
// in Yield at each MPI call boundary and exactly one rank runs between
// consecutive grants, so the interleaving of MPI-visible actions is a pure
// function of the sequencer's decisions — the goroutine scheduler stops
// being a source of non-determinism.
type Sequencer interface {
	// Yield parks the calling rank until the sequencer grants it the next
	// step. blocked marks the rank unrunnable until Wake/WakeAll (used by
	// blocking waits with nothing left to poll); a non-blocked yield keeps
	// the rank in the runnable set. A non-nil error (schedule deadlock,
	// abort) must unwind the rank's MPI call.
	Yield(rank int, blocked bool) error
	// Wake marks a blocked rank runnable again (message deposit).
	Wake(rank int)
	// WakeAll marks every blocked rank runnable (collective completion,
	// world abort).
	WakeAll()
	// Done retires the calling rank once its function returns.
	Done(rank int)
}

// Options configure a World.
type Options struct {
	// Seed seeds the delivery-jitter noise; two worlds with different
	// seeds see different message orderings, and even a fixed seed leaves
	// genuine non-determinism from the goroutine schedule.
	Seed int64
	// MaxJitter is the maximum delivery delay in receiver poll ticks.
	// 0 delivers every message at the receiver's next poll (still
	// non-deterministic across senders); larger values widen the
	// reordering window. Default 8.
	MaxJitter int
	// WaitTimeout bounds every blocking call; exceeding it returns
	// ErrTimeout instead of hanging a test. Default 30s.
	WaitTimeout time.Duration
	// Faults, when non-nil, schedules a deterministic rank failure (see
	// FaultPlan). Nil worlds never inject faults.
	Faults *FaultPlan
	// Obs, when non-nil, receives the runtime's delivery metrics (net.*
	// names, DESIGN.md §8): per-message jitter ticks, message count, and
	// in-flight depth. Shared across all ranks' mailboxes.
	Obs *obs.Registry
	// Sequencer, when non-nil, hands rank scheduling to a deterministic
	// controller (see the Sequencer interface). It also disables the
	// wall-clock deadlines in blocking calls: a stuck world is reported by
	// the Sequencer's deadlock detection instead of tripping ErrTimeout on
	// slow machines.
	Sequencer Sequencer
	// Delivery, when non-nil, replaces the mailbox jitter RNG: it returns
	// the delivery delay in receiver poll ticks for the message identified
	// by (dst, src, tag, seq), where seq is the destination mailbox's
	// 1-based deposit sequence number. A pure function keeps delivery a
	// deterministic function of the deposit order, which a Sequencer in
	// turn makes a deterministic function of its decisions.
	Delivery func(dst, src, tag int, seq uint64) uint64
}

func (o *Options) fill() {
	if o.MaxJitter == 0 {
		o.MaxJitter = 8
	}
	if o.WaitTimeout == 0 {
		o.WaitTimeout = 30 * time.Second
	}
}

// World is a set of communicating ranks.
type World struct {
	n       int
	opts    Options
	boxes   []*mailbox
	coll    *collectives
	aborted atomic.Bool
}

// NewWorld creates a world of n ranks.
func NewWorld(n int, opts Options) *World {
	if n <= 0 {
		//cdc:invariant constructor precondition: a zero-rank world is caller misuse, not a runtime condition
		panic("simmpi: world size must be positive")
	}
	opts.fill()
	w := &World{n: n, opts: opts, coll: newCollectives(n)}
	w.coll.aborted = &w.aborted
	ins := mailboxInstruments{
		jitter:   opts.Obs.Histogram("net.jitter.ticks", obs.LinearBounds(0, 1, 16)),
		messages: opts.Obs.Counter("net.messages"),
		inflight: opts.Obs.Gauge("net.inflight"),
	}
	w.boxes = make([]*mailbox, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(opts.Seed*1_000_003+int64(i)*7919+1, opts.MaxJitter, n)
		w.boxes[i].ins = ins
		if opts.Delivery != nil {
			dst := i
			w.boxes[i].deliver = func(src, tag int, seq uint64) uint64 {
				return w.opts.Delivery(dst, src, tag, seq)
			}
		}
	}
	return w
}

// wake marks a rank runnable in sequencer mode (no-op otherwise).
func (w *World) wake(rank int) {
	if s := w.opts.Sequencer; s != nil {
		s.Wake(rank)
	}
}

// wakeAll marks every blocked rank runnable in sequencer mode.
func (w *World) wakeAll() {
	if s := w.opts.Sequencer; s != nil {
		s.WakeAll()
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Comm returns the raw MPI endpoint for a rank. Most callers should use Run;
// Comm exists for tests that drive ranks manually.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.n {
		//cdc:invariant accessor precondition: an out-of-range rank is caller misuse, not a runtime condition
		panic(fmt.Sprintf("simmpi: rank %d out of range", rank))
	}
	return &Comm{world: w, rank: rank, deadline: w.opts.WaitTimeout}
}

// Run starts one goroutine per rank executing fn and waits for all to
// finish. A panic in any rank is recovered and reported; the first non-nil
// error wins.
func (w *World) Run(fn func(mpi MPI) error) error {
	return w.RunRanked(func(rank int, mpi MPI) error { return fn(mpi) })
}

// RunRanked is Run with the rank passed explicitly, for callers that stack
// per-rank tool layers around the raw endpoint.
//
// Under a Sequencer, every rank parks before running fn (so the first
// decision sees the complete rank set) and retires via Done afterwards;
// between those points the rank only runs while holding the sequencer's
// grant.
func (w *World) RunRanked(fn func(rank int, mpi MPI) error) error {
	errs := make([]error, w.n)
	seq := w.opts.Sequencer
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if seq != nil {
				defer seq.Done(rank)
			}
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("simmpi: rank %d panicked: %v", rank, p)
				}
			}()
			if seq != nil {
				if err := seq.Yield(rank, false); err != nil {
					errs[rank] = err
					return
				}
			}
			errs[rank] = fn(rank, w.Comm(rank))
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
