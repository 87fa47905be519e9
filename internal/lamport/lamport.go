// Package lamport implements the Lamport-clock piggybacking layer
// (paper §4.3, Definition 4).
//
// The layer wraps an MPI endpoint the way a PMPI module wraps MPI calls.
// Every outgoing payload is prefixed with the sender's current clock
// (8 bytes, little endian), after which the clock increments by one
// (Definition 4.i). When a receive completes at the application level, the
// layer strips the prefix, exposes it as Status.Clock, and sets its own
// clock to max(received, own)+1 (Definition 4.ii).
//
// Because sender clocks strictly increase, the pair (source rank, clock)
// uniquely identifies a message — the message identifier CDC needs to
// survive the application-level out-of-order problem of paper Fig. 3, where
// (source, tag) is ambiguous.
//
// Clock updates happen in the order the application observes completions,
// so replaying the completion order replays the clocks (Theorem 2).
package lamport

import (
	"encoding/binary"
	"fmt"

	"cdcreplay/internal/simmpi"
)

// HeaderLen is the piggyback prefix size in bytes (the paper's 8-byte
// clock, §6.2).
const HeaderLen = 8

// Policy selects the replayable clock definition. The paper uses the
// classic Lamport rules (Definition 4) and names the search for other
// replayable clock definitions as future work (§4.3): any rule that is a
// deterministic function of the events the replay reproduces — sends in
// program order and receives in replayed order — is replayable. The rules
// differ in how closely the resulting reference order tracks the observed
// order, and hence in record size (see BenchmarkAblationClockPolicy).
type Policy int

const (
	// Classic is Definition 4: send attaches then increments; receive
	// sets clock to max(received, own)+1.
	Classic Policy = iota
	// ReceiveMax drops the +1 on the receive side: receive sets clock to
	// max(received, own). Clocks advance only at sends, so a burst of
	// receives does not inflate the clock between two sends; per-sender
	// attached clocks still strictly increase (the send-side increment
	// alone guarantees message-identifier uniqueness), and the update
	// remains a deterministic function of the replayed receive order.
	ReceiveMax
)

// Layer is a clock-piggybacking MPI layer for one rank.
type Layer struct {
	next   simmpi.MPI
	clock  uint64
	manual bool
	policy Policy
	// sendBuf is Send's header+payload scratch, reused across sends: the
	// MPI.Send contract has the layer below copy the payload.
	sendBuf []byte
}

var _ simmpi.MPI = (*Layer)(nil)

// InitialClock is the clock value a process starts with. Starting at 1
// (rather than 0) lets the CDC chunk decoder treat "no clock received yet
// from sender s" as the exclusive lower bound 0 of the first epoch window.
const InitialClock = 1

// Wrap returns a Layer stacked on next.
func Wrap(next simmpi.MPI) *Layer { return &Layer{next: next, clock: InitialClock} }

// WrapPolicy returns a Layer using the given clock policy. Record and
// replay must use the same policy.
func WrapPolicy(next simmpi.MPI, p Policy) *Layer {
	return &Layer{next: next, clock: InitialClock, policy: p}
}

// WrapManualPolicy is WrapManual with a clock policy.
func WrapManualPolicy(next simmpi.MPI, p Policy) *Layer {
	return &Layer{next: next, manual: true, clock: InitialClock, policy: p}
}

// WrapManual returns a Layer whose receive-side clock rule (Definition
// 4.ii) is NOT applied automatically at completion. The replay engine uses
// this mode: it polls completions below in arrival order but must apply
// clock ticks in the *replayed* observed order (Theorem 2), which it does
// by calling TickReceive as it releases each event to the application.
// Completions still have their piggyback header stripped and Status.Clock
// set.
func WrapManual(next simmpi.MPI) *Layer {
	return &Layer{next: next, manual: true, clock: InitialClock}
}

// TickReceive applies the receive clock rule for a message carrying clock:
// Definition 4.ii under the Classic policy (max then +1), or the plain max
// under ReceiveMax. Only meaningful on a manual layer; the automatic mode
// ticks internally.
func (l *Layer) TickReceive(clock uint64) {
	if clock > l.clock {
		l.clock = clock
	}
	if l.policy == Classic {
		l.clock++
	}
}

// Clock returns the rank's current Lamport clock.
func (l *Layer) Clock() uint64 { return l.clock }

// Rank returns the rank of the wrapped endpoint.
func (l *Layer) Rank() int { return l.next.Rank() }

// Size returns the world size.
func (l *Layer) Size() int { return l.next.Size() }

// Send attaches the current clock and increments it.
func (l *Layer) Send(dst, tag int, data []byte) error {
	l.sendBuf = append(binary.LittleEndian.AppendUint64(l.sendBuf[:0], l.clock), data...)
	l.clock++
	return l.next.Send(dst, tag, l.sendBuf)
}

// Irecv passes through; the clock is handled at completion.
func (l *Layer) Irecv(src, tag int) (*simmpi.Request, error) {
	return l.next.Irecv(src, tag)
}

// onComplete strips the piggyback prefix and ticks the clock.
func (l *Layer) onComplete(st *simmpi.Status) error {
	if len(st.Data) < HeaderLen {
		return fmt.Errorf("lamport: message from %d lacks piggyback header (%d bytes)", st.Source, len(st.Data))
	}
	recv := binary.LittleEndian.Uint64(st.Data)
	st.Clock = recv
	st.Data = st.Data[HeaderLen:]
	if !l.manual {
		l.TickReceive(recv)
	}
	return nil
}

// Test forwards and processes a completion if any.
func (l *Layer) Test(req *simmpi.Request) (bool, simmpi.Status, error) {
	ok, st, err := l.next.Test(req)
	if err != nil || !ok {
		return ok, st, err
	}
	if err := l.onComplete(&st); err != nil {
		return false, simmpi.Status{}, err
	}
	return true, st, nil
}

// Testany forwards and processes a completion if any.
func (l *Layer) Testany(reqs []*simmpi.Request) (int, bool, simmpi.Status, error) {
	i, ok, st, err := l.next.Testany(reqs)
	if err != nil || !ok {
		return i, ok, st, err
	}
	if err := l.onComplete(&st); err != nil {
		return -1, false, simmpi.Status{}, err
	}
	return i, true, st, nil
}

// Testsome forwards and processes completions in reported order.
func (l *Layer) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := l.next.Testsome(reqs)
	if err != nil {
		return idxs, sts, err
	}
	for i := range sts {
		if err := l.onComplete(&sts[i]); err != nil {
			return nil, nil, err
		}
	}
	return idxs, sts, nil
}

// Testall forwards and processes completions in reported order.
func (l *Layer) Testall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	ok, sts, err := l.next.Testall(reqs)
	if err != nil || !ok {
		return ok, sts, err
	}
	for i := range sts {
		if err := l.onComplete(&sts[i]); err != nil {
			return false, nil, err
		}
	}
	return true, sts, nil
}

// Wait forwards and processes the completion.
func (l *Layer) Wait(req *simmpi.Request) (simmpi.Status, error) {
	st, err := l.next.Wait(req)
	if err != nil {
		return st, err
	}
	if err := l.onComplete(&st); err != nil {
		return simmpi.Status{}, err
	}
	return st, nil
}

// Waitany forwards and processes the completion.
func (l *Layer) Waitany(reqs []*simmpi.Request) (int, simmpi.Status, error) {
	i, st, err := l.next.Waitany(reqs)
	if err != nil {
		return i, st, err
	}
	if err := l.onComplete(&st); err != nil {
		return -1, simmpi.Status{}, err
	}
	return i, st, nil
}

// Waitsome forwards and processes completions in reported order.
func (l *Layer) Waitsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := l.next.Waitsome(reqs)
	if err != nil {
		return idxs, sts, err
	}
	for i := range sts {
		if err := l.onComplete(&sts[i]); err != nil {
			return nil, nil, err
		}
	}
	return idxs, sts, nil
}

// Waitall forwards and processes completions in reported order.
func (l *Layer) Waitall(reqs []*simmpi.Request) ([]simmpi.Status, error) {
	sts, err := l.next.Waitall(reqs)
	if err != nil {
		return sts, err
	}
	for i := range sts {
		if err := l.onComplete(&sts[i]); err != nil {
			return nil, err
		}
	}
	return sts, nil
}

// syncClock deterministically advances every participant to
// max(all clocks)+1 across a collective.
func (l *Layer) syncClock() error {
	m, err := l.next.Allreduce(float64(l.clock), simmpi.OpMax)
	if err != nil {
		return err
	}
	l.clock = uint64(m) + 1
	return nil
}

// Barrier synchronizes ranks and their clocks: every participant leaves
// with clock = max(all clocks)+1, a deterministic update.
func (l *Layer) Barrier() error { return l.syncClock() }

// Allreduce reduces v and synchronizes clocks like Barrier.
func (l *Layer) Allreduce(v float64, op simmpi.ReduceOp) (float64, error) {
	out, err := l.next.Allreduce(v, op)
	if err != nil {
		return 0, err
	}
	return out, l.syncClock()
}

// Reduce reduces v at root and synchronizes clocks.
func (l *Layer) Reduce(v float64, op simmpi.ReduceOp, root int) (float64, error) {
	out, err := l.next.Reduce(v, op, root)
	if err != nil {
		return 0, err
	}
	return out, l.syncClock()
}

// Bcast distributes root's data and synchronizes clocks.
func (l *Layer) Bcast(data []byte, root int) ([]byte, error) {
	out, err := l.next.Bcast(data, root)
	if err != nil {
		return nil, err
	}
	return out, l.syncClock()
}

// Gather collects values at root and synchronizes clocks.
func (l *Layer) Gather(v float64, root int) ([]float64, error) {
	out, err := l.next.Gather(v, root)
	if err != nil {
		return nil, err
	}
	return out, l.syncClock()
}

// Allgather collects values everywhere and synchronizes clocks.
func (l *Layer) Allgather(v float64) ([]float64, error) {
	out, err := l.next.Allgather(v)
	if err != nil {
		return nil, err
	}
	return out, l.syncClock()
}
