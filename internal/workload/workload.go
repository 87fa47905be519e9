// Package workload generates synthetic non-deterministic communication
// event streams with tunable intensity and disorder, standing in for the
// "applications with greater communication intensity" the paper
// extrapolates to in Fig. 15 (§6.1) and serving as the driver for
// compression ablation sweeps.
//
// Two generators are provided:
//
//   - Stream: a pure event-stream generator (no message passing) that
//     emulates the statistical structure of a recorder's observed events —
//     per-sender strictly increasing piggyback clocks, bounded cross-sender
//     reordering, unmatched-test runs, and multi-completion grouping. It
//     drives the compression benchmarks without paying for a live run.
//
//   - Exchange: a live simmpi application performing random pairwise
//     exchanges at a configurable messages-per-compute-unit rate, used
//     where a real tool stack must be exercised.
package workload

import (
	"math/rand"
	"slices"

	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// StreamParams shape a synthetic observed-event stream.
type StreamParams struct {
	// Events is the number of matched receive events to generate.
	Events int
	// Senders is the number of distinct message sources.
	Senders int
	// Disorder is the window (in events) within which cross-sender
	// arrival order is shuffled; 0 yields the reference order exactly
	// (hidden determinism), larger values increase the permutation
	// percentage. Typical MCB-like traffic sits around 2–6.
	Disorder int
	// UnmatchedProb is the probability of a failed-test run before a
	// matched event (Test-family polling traffic).
	UnmatchedProb float64
	// MaxUnmatched bounds the length of a failed-test run. Default 8.
	MaxUnmatched int
	// GroupProb is the probability a matched event is delivered together
	// with its successor (Waitsome/Testsome multi-completion traffic).
	GroupProb float64
	// ClockStride is the mean clock advance per send at one sender.
	// Default 2.
	ClockStride int
	// Seed seeds the generator.
	Seed int64
}

func (p *StreamParams) fill() {
	if p.Senders == 0 {
		p.Senders = 8
	}
	if p.MaxUnmatched == 0 {
		p.MaxUnmatched = 8
	}
	if p.ClockStride == 0 {
		p.ClockStride = 2
	}
}

// Stream generates the event rows a recorder would observe for one rank.
func Stream(p StreamParams) []tables.Event {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))

	type msg struct {
		rank  int32
		clock uint64
	}
	// Clocks advance globally (a receiver's incoming piggyback clocks
	// track its own Lamport clock), so the pre-shuffle stream is exactly
	// the reference order and Disorder alone controls the permutation.
	var global uint64
	msgs := make([]msg, p.Events)
	for i := range msgs {
		s := rng.Intn(p.Senders)
		global += uint64(1 + rng.Intn(2*p.ClockStride-1))
		msgs[i] = msg{rank: int32(s), clock: global}
	}
	// Bounded-window shuffle across senders, then restore each sender's
	// internal clock order (swap chains could otherwise transitively
	// invert same-sender messages, which MPI-level FIFO delivery forbids
	// in recorder-observed arrival order): each sender's clocks are
	// reassigned ascending over its (shuffled) positions.
	if p.Disorder > 0 {
		for i := 0; i+1 < len(msgs); i++ {
			j := i + rng.Intn(p.Disorder+1)
			if j >= len(msgs) {
				j = len(msgs) - 1
			}
			msgs[i], msgs[j] = msgs[j], msgs[i]
		}
		clocksOf := make([][]uint64, p.Senders)
		for _, m := range msgs {
			clocksOf[m.rank] = append(clocksOf[m.rank], m.clock)
		}
		for _, cs := range clocksOf {
			slices.Sort(cs)
		}
		next := make([]int, p.Senders)
		for i := range msgs {
			r := msgs[i].rank
			msgs[i].clock = clocksOf[r][next[r]]
			next[r]++
		}
	}

	events := make([]tables.Event, 0, p.Events+p.Events/4)
	for i, m := range msgs {
		if rng.Float64() < p.UnmatchedProb {
			events = append(events, tables.Unmatched(uint64(1+rng.Intn(p.MaxUnmatched))))
		}
		withNext := i+1 < len(msgs) && rng.Float64() < p.GroupProb
		events = append(events, tables.Matched(m.rank, m.clock, withNext))
	}
	return events
}

// MCBLike returns StreamParams tuned to resemble the MCB event statistics
// the paper reports: roughly 30% permuted messages and frequent unmatched
// polls. intensity scales the event count (the paper's "communication
// intensity × k").
func MCBLike(events int, intensity float64, seed int64) StreamParams {
	return StreamParams{
		Events:        int(float64(events) * intensity),
		Senders:       8,
		Disorder:      4,
		UnmatchedProb: 0.3,
		GroupProb:     0.15,
		Seed:          seed,
	}
}

// DeterministicLike returns StreamParams resembling hidden-deterministic
// halo traffic (Fig. 17): in-order receives, regular grouping, no failed
// tests.
func DeterministicLike(events int, seed int64) StreamParams {
	return StreamParams{
		Events:    events,
		Senders:   2,
		Disorder:  0,
		GroupProb: 0.5,
		Seed:      seed,
	}
}

// ExchangeParams configure the live random-exchange application.
type ExchangeParams struct {
	// Rounds is the number of exchange rounds.
	Rounds int
	// MessagesPerRound is how many messages each rank sends per round to
	// random peers (the communication-intensity knob).
	MessagesPerRound int
	// Payload is the message payload size in bytes.
	Payload int
	// Seed seeds per-rank peer selection.
	Seed int64
}

func (p *ExchangeParams) fill() {
	if p.Rounds == 0 {
		p.Rounds = 10
	}
	if p.MessagesPerRound == 0 {
		p.MessagesPerRound = 8
	}
	if p.Payload == 0 {
		p.Payload = 64
	}
}

// ExchangeResult summarizes one rank's exchange run.
type ExchangeResult struct {
	Sent, Received uint64
}

// Exchange runs random pairwise traffic: every rank sends
// MessagesPerRound messages to random peers each round, receives with
// wildcard Testsome polling, and rounds are separated by quiescence
// (counting) so no messages leak across the end of the run.
func Exchange(mpi simmpi.MPI, p ExchangeParams) (ExchangeResult, error) {
	p.fill()
	res := ExchangeResult{}
	rng := rand.New(rand.NewSource(p.Seed + int64(mpi.Rank())*7919))
	payload := make([]byte, p.Payload)

	const tag = 31
	pool := make([]*simmpi.Request, 4)
	for i := range pool {
		req, err := mpi.Irecv(simmpi.AnySource, tag)
		if err != nil {
			return res, err
		}
		pool[i] = req
	}
	poll := func() error {
		idxs, _, err := mpi.Testsome(pool)
		if err != nil {
			return err
		}
		for _, i := range idxs {
			res.Received++
			req, err := mpi.Irecv(simmpi.AnySource, tag)
			if err != nil {
				return err
			}
			pool[i] = req
		}
		return nil
	}

	for round := 0; round < p.Rounds; round++ {
		for m := 0; m < p.MessagesPerRound; m++ {
			dst := rng.Intn(mpi.Size())
			if dst == mpi.Rank() {
				dst = (dst + 1) % mpi.Size()
			}
			if mpi.Size() == 1 {
				break
			}
			if err := mpi.Send(dst, tag, payload); err != nil {
				return res, err
			}
			res.Sent++
			if err := poll(); err != nil {
				return res, err
			}
		}
		// Quiesce the round.
		for {
			if err := poll(); err != nil {
				return res, err
			}
			pending, err := mpi.Allreduce(float64(res.Sent)-float64(res.Received), simmpi.OpSum)
			if err != nil {
				return res, err
			}
			if pending == 0 {
				break
			}
		}
	}
	return res, nil
}
