package record

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// TestRecorderObsMetrics checks the DESIGN.md §8 record-layer metrics
// against ground truth from RateStats on a run with a known event count.
func TestRecorderObsMetrics(t *testing.T) {
	const msgs = 40
	reg := obs.NewRegistry()
	var spans []obs.Span
	reg.OnSpan(func(s obs.Span) { spans = append(spans, s) })

	w := simmpi.NewWorld(2, simmpi.Options{Seed: 5, MaxJitter: 3, Obs: reg})
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 1 {
			l := lamport.Wrap(mpi)
			for i := 0; i < msgs; i++ {
				if err := l.Send(0, 1, nil); err != nil {
					return err
				}
			}
			return nil
		}
		var buf bytes.Buffer
		enc, err := core.NewEncoder(&buf, core.EncoderOptions{Obs: reg})
		if err != nil {
			return err
		}
		rec := New(lamport.Wrap(mpi), enc, Options{Obs: reg, FlushEveryRows: 8})
		for i := 0; i < msgs; i++ {
			req, _ := rec.Irecv(1, 1)
			if _, err := rec.Wait(req); err != nil {
				return err
			}
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counter("record.rows"); got != msgs {
		t.Errorf("record.rows = %d, want %d", got, msgs)
	}
	if got := s.Counter("record.queue.enqueued"); got != msgs {
		t.Errorf("record.queue.enqueued = %d, want %d", got, msgs)
	}
	// 40 rows at FlushEveryRows: 8 → 5 mid-run flush passes.
	if got := s.Counter("record.flushes"); got != 5 {
		t.Errorf("record.flushes = %d, want 5", got)
	}
	if h := s.Histogram("record.flush.ns"); h.Count != 5 {
		t.Errorf("record.flush.ns count = %d, want 5", h.Count)
	}
	if got := s.Gauge("record.queue.depth").Max; got < 1 {
		t.Errorf("record.queue.depth max = %d, want ≥ 1", got)
	}
	// The encoder fed the same rows through the stage counters.
	for _, name := range []string{"encode.bytes.raw", "encode.bytes.re", "encode.bytes.pe", "encode.bytes.lpe", "encode.bytes.gzip"} {
		if s.Counter(name) == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	// The net layer saw the 40 sends (plus clock piggyback traffic counts as
	// the same messages).
	if got := s.Counter("net.messages"); got < msgs {
		t.Errorf("net.messages = %d, want ≥ %d", got, msgs)
	}
	// Every flush pass emitted a record.flush span.
	flushSpans := 0
	for _, sp := range spans {
		if sp.Name == "record.flush" {
			flushSpans++
		}
	}
	if flushSpans != 5 {
		t.Errorf("record.flush spans = %d, want 5", flushSpans)
	}
}

// TestRecorderNilObsIsNoop runs the same shape with no registry: nothing to
// assert beyond "does not crash", which is the point of nil-safe
// instruments.
func TestRecorderNilObsIsNoop(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 6, MaxJitter: 3})
	err := w.Run(func(mpi simmpi.MPI) error {
		if mpi.Rank() == 1 {
			return lamport.Wrap(mpi).Send(0, 1, nil)
		}
		var buf bytes.Buffer
		enc, err := core.NewEncoder(&buf, core.EncoderOptions{})
		if err != nil {
			return err
		}
		rec := New(lamport.Wrap(mpi), enc, Options{FlushEveryRows: 1})
		req, _ := rec.Irecv(1, 1)
		if _, err := rec.Wait(req); err != nil {
			return err
		}
		return rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestObsNilInstrumentsDoNotAllocate pins the disabled-state contract that
// makes unconditional call sites acceptable on the hot path: calling a nil
// instrument allocates nothing.
func TestObsNilInstrumentsDoNotAllocate(t *testing.T) {
	var reg *obs.Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", obs.LatencyBounds())
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(3)
		h.Observe(9)
		reg.StartSpan("x").End()
	}); n != 0 {
		t.Fatalf("nil instruments allocated %.1f times per call group", n)
	}
}

// TestObsDisabledOverheadWithinNoise checks the nil-registry cost contract
// (DESIGN.md §8) on the record hot path by a count that load cannot move:
// with instrumentation disabled, recording allocates no more per row than
// with a live registry, whose instruments are a superset of the disabled
// path's work. An allocation on the disabled path (a nil instrument that
// is not free) adds a count per row and fails it. Off and on samples
// alternate over several rounds, and each side's fewest allocations per
// row are compared, since the observe queue allocates a segment only when
// the CDC goroutine falls behind. The wall-clock medians are logged, not
// checked: on a shared host, load during one side's rounds moves them.
func TestObsDisabledOverheadWithinNoise(t *testing.T) {
	const rounds, reps = 7, 3
	events := workload.Stream(workload.MCBLike(20_000, 1, 77))
	rows := float64(reps * len(events))
	sample := func(reg *obs.Registry) (ns, allocs float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < reps; i++ {
			w := simmpi.NewWorld(1, simmpi.Options{})
			enc, _ := core.NewEncoder(io.Discard, core.EncoderOptions{OmitSenderColumn: true, Obs: reg})
			rec := New(lamport.Wrap(w.Comm(0)), enc, Options{Obs: reg})
			for _, ev := range events {
				rec.enqueue(0, "benchmark", ev)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(elapsed.Nanoseconds()) / reps, float64(after.Mallocs-before.Mallocs) / rows
	}
	var offs, ons, offAllocs, onAllocs []float64
	add := func(reg *obs.Registry, ns, allocs *[]float64) {
		n, a := sample(reg)
		*ns, *allocs = append(*ns, n), append(*allocs, a)
	}
	for round := 0; round < rounds; round++ {
		if round%2 == 0 {
			add(nil, &offs, &offAllocs)
			add(obs.NewRegistry(), &ons, &onAllocs)
		} else {
			add(obs.NewRegistry(), &ons, &onAllocs)
			add(nil, &offs, &offAllocs)
		}
	}
	slices.Sort(offs)
	slices.Sort(ons)
	offNs, onNs := offs[rounds/2], ons[rounds/2]
	offA, onA := slices.Min(offAllocs), slices.Min(onAllocs)
	t.Logf("record hot path, median of %d alternated rounds: obs off %.0f ns/op, obs on %.0f ns/op (on/off ratio %.3f)",
		rounds, offNs, onNs, onNs/offNs)
	t.Logf("allocations per recorded row, fewest of %d rounds: obs off %.4f, obs on %.4f", rounds, offA, onA)
	if offA > onA {
		t.Errorf("disabled instrumentation allocates more per row than enabled: off %.4f vs on %.4f", offA, onA)
	}
}

// slowBackend is a collector whose Observe takes long enough that a small
// observe queue fills behind it.
type slowBackend struct{ *collector }

func (b slowBackend) Observe(cs uint64, ev tables.Event) error {
	time.Sleep(50 * time.Microsecond)
	return b.collector.Observe(cs, ev)
}

// TestEnqueueBlockedIsQueueStalls forces the observe queue full and checks
// RateStats.EnqueueBlocked and record.queue.stalls report one count.
func TestEnqueueBlockedIsQueueStalls(t *testing.T) {
	const rows = 200
	reg := obs.NewRegistry()
	w := simmpi.NewWorld(1, simmpi.Options{})
	rec := New(lamport.Wrap(w.Comm(0)), slowBackend{newCollector()}, Options{QueueCapacity: 2, Obs: reg})
	for i := 0; i < rows; i++ {
		rec.enqueue(0, "slow", tables.MatchedTagged(0, 1, uint64(i+1), false))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	stalls := reg.Snapshot().Counter("record.queue.stalls")
	if st.EnqueueBlocked == 0 {
		t.Fatalf("EnqueueBlocked = 0 with a 2-slot queue behind a slow backend; the queue never filled")
	}
	if st.EnqueueBlocked != stalls {
		t.Fatalf("EnqueueBlocked = %d, record.queue.stalls = %d; want one count", st.EnqueueBlocked, stalls)
	}
	if st.Enqueued != rows {
		t.Fatalf("Enqueued = %d, want %d", st.Enqueued, rows)
	}
}
