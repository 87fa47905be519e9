package record

import (
	"bytes"
	"io"
	"testing"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
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
		rec := New(lamport.Wrap(mpi), baseline.NewCDC(enc), Options{Obs: reg, FlushEveryRows: 8})
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
		rec := New(lamport.Wrap(mpi), baseline.NewCDC(enc), Options{FlushEveryRows: 1})
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

// TestObsDisabledOverheadWithinNoise runs the record hot path with
// instrumentation disabled and enabled and checks the disabled state is not
// measurably slower — i.e. the nil checks cost at most what the full
// atomic-counter path costs, which itself stays within a generous envelope.
// The tolerance is deliberately loose: this guards against order-of-
// magnitude regressions (an accidental allocation or lock on the disabled
// path), not single-digit percentages, which CI machines cannot resolve.
func TestObsDisabledOverheadWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	events := workload.Stream(workload.MCBLike(20_000, 1, 77))
	run := func(reg *obs.Registry) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := simmpi.NewWorld(1, simmpi.Options{})
				enc, _ := core.NewEncoder(io.Discard, core.EncoderOptions{OmitSenderColumn: true, Obs: reg})
				rec := New(lamport.Wrap(w.Comm(0)), baseline.NewCDC(enc), Options{Obs: reg})
				for _, ev := range events {
					rec.enqueue(0, "benchmark", ev)
				}
				if err := rec.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	off := testing.Benchmark(run(nil))
	on := testing.Benchmark(run(obs.NewRegistry()))
	offNs := float64(off.NsPerOp())
	onNs := float64(on.NsPerOp())
	t.Logf("record hot path: obs off %.0f ns/op, obs on %.0f ns/op (on/off ratio %.3f)",
		offNs, onNs, onNs/offNs)
	if offNs > onNs*1.25 {
		t.Errorf("disabled instrumentation slower than enabled beyond noise: off %.0f ns/op vs on %.0f ns/op", offNs, onNs)
	}
	if onNs > offNs*1.5 {
		t.Errorf("enabled instrumentation more than 50%% over disabled: on %.0f ns/op vs off %.0f ns/op", onNs, offNs)
	}
}
