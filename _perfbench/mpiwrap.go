package main

import (
	"cdcreplay/internal/simmpi"
)

// MPI call classes the wrapper times separately.
const (
	opSend = iota // Send
	opPost        // Irecv
	opTest        // Test, Testany, Testsome, Testall
	opWait        // Wait*, and the blocking collectives
	numOps
)

var opNames = [numOps]string{"send", "post", "test", "wait"}

// timedMPI wraps the simmpi.MPI handed to the application. It counts the
// receives the application saw complete (simmpi sends are eager, so every
// completed request is a receive) and, with timed set, sums the time and
// calls of each call class.
type timedMPI struct {
	simmpi.MPI
	timed bool

	ns       [numOps]int64
	calls    [numOps]uint64
	received uint64
}

func (m *timedMPI) begin() int64 {
	if m.timed {
		return now()
	}
	return 0
}

func (m *timedMPI) finish(op int, t0 int64, completed int) {
	m.received += uint64(completed)
	if m.timed {
		m.ns[op] += now() - t0
		m.calls[op]++
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (m *timedMPI) mpiNs() int64 {
	var n int64
	for _, v := range m.ns {
		n += v
	}
	return n
}

func (m *timedMPI) Send(dst, tag int, data []byte) error {
	t0 := m.begin()
	err := m.MPI.Send(dst, tag, data)
	m.finish(opSend, t0, 0)
	return err
}

func (m *timedMPI) Irecv(src, tag int) (*simmpi.Request, error) {
	t0 := m.begin()
	r, err := m.MPI.Irecv(src, tag)
	m.finish(opPost, t0, 0)
	return r, err
}

func (m *timedMPI) Test(req *simmpi.Request) (bool, simmpi.Status, error) {
	t0 := m.begin()
	ok, st, err := m.MPI.Test(req)
	m.finish(opTest, t0, b2i(ok && err == nil))
	return ok, st, err
}

func (m *timedMPI) Testany(reqs []*simmpi.Request) (int, bool, simmpi.Status, error) {
	t0 := m.begin()
	i, ok, st, err := m.MPI.Testany(reqs)
	m.finish(opTest, t0, b2i(ok && err == nil))
	return i, ok, st, err
}

func (m *timedMPI) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	t0 := m.begin()
	idx, st, err := m.MPI.Testsome(reqs)
	m.finish(opTest, t0, len(idx))
	return idx, st, err
}

func (m *timedMPI) Testall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	t0 := m.begin()
	ok, st, err := m.MPI.Testall(reqs)
	n := 0
	if ok && err == nil {
		n = len(reqs)
	}
	m.finish(opTest, t0, n)
	return ok, st, err
}

func (m *timedMPI) Wait(req *simmpi.Request) (simmpi.Status, error) {
	t0 := m.begin()
	st, err := m.MPI.Wait(req)
	m.finish(opWait, t0, b2i(err == nil))
	return st, err
}

func (m *timedMPI) Waitany(reqs []*simmpi.Request) (int, simmpi.Status, error) {
	t0 := m.begin()
	i, st, err := m.MPI.Waitany(reqs)
	m.finish(opWait, t0, b2i(err == nil))
	return i, st, err
}

func (m *timedMPI) Waitsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	t0 := m.begin()
	idx, st, err := m.MPI.Waitsome(reqs)
	m.finish(opWait, t0, len(idx))
	return idx, st, err
}

func (m *timedMPI) Waitall(reqs []*simmpi.Request) ([]simmpi.Status, error) {
	t0 := m.begin()
	st, err := m.MPI.Waitall(reqs)
	n := 0
	if err == nil {
		n = len(reqs)
	}
	m.finish(opWait, t0, n)
	return st, err
}

func (m *timedMPI) Barrier() error {
	t0 := m.begin()
	err := m.MPI.Barrier()
	m.finish(opWait, t0, 0)
	return err
}

func (m *timedMPI) Allreduce(v float64, op simmpi.ReduceOp) (float64, error) {
	t0 := m.begin()
	r, err := m.MPI.Allreduce(v, op)
	m.finish(opWait, t0, 0)
	return r, err
}

func (m *timedMPI) Reduce(v float64, op simmpi.ReduceOp, root int) (float64, error) {
	t0 := m.begin()
	r, err := m.MPI.Reduce(v, op, root)
	m.finish(opWait, t0, 0)
	return r, err
}

func (m *timedMPI) Bcast(data []byte, root int) ([]byte, error) {
	t0 := m.begin()
	r, err := m.MPI.Bcast(data, root)
	m.finish(opWait, t0, 0)
	return r, err
}

func (m *timedMPI) Gather(v float64, root int) ([]float64, error) {
	t0 := m.begin()
	r, err := m.MPI.Gather(v, root)
	m.finish(opWait, t0, 0)
	return r, err
}

func (m *timedMPI) Allgather(v float64) ([]float64, error) {
	t0 := m.begin()
	r, err := m.MPI.Allgather(v)
	m.finish(opWait, t0, 0)
	return r, err
}
