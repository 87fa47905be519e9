package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"cdcreplay/internal/obs"
)

// epoch anchors every timestamp the benchmark takes: now() is monotonic
// nanoseconds since process start, cheap to store and subtract.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// maxSpans bounds the in-memory span log; spans past it are counted, not
// kept, so a long traced run cannot grow without limit.
const maxSpans = 1 << 18

// span is one timed call into a layer, recorded by the benchmark around
// the call (no tracing lives inside the program). Parent links a span to
// the span that caused it; every span of one repetition shares Run.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the traced repetitions' per-layer sums, raw samples and
// coarse spans. A nil tracer is tracing off: every method is a no-op.
type tracer struct {
	ids atomic.Uint64

	mu      sync.Mutex
	run     string
	sums    map[string]float64
	samples map[string][]float64
	spans   []span
	dropped uint64
}

func newTracer() *tracer {
	return &tracer{sums: make(map[string]float64), samples: make(map[string][]float64)}
}

// setRun names the repetition whose spans follow.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// add accumulates v into the per-layer sum name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// get reads the per-layer sum name (0 when tracing is off).
func (t *tracer) get(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[name]
}

// sumOf is the total of several per-layer sums (0 when tracing is off).
func (t *tracer) sumOf(names ...string) float64 {
	var v float64
	for _, n := range names {
		v += t.get(n)
	}
	return v
}

// sample keeps one raw sample of name for exact quantiles.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// maxInto raises the per-layer value name to v if v is larger.
func (t *tracer) maxInto(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.sums[name] {
		t.sums[name] = v
	}
	t.mu.Unlock()
}

// spanRef is an open span; end records it.
type spanRef struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  int64
}

// start opens a span under parent (0 for a root span).
func (t *tracer) start(name string, parent uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.ids.Add(1), parent: parent, name: name, start: now()}
}

// end closes the span and returns its duration in nanoseconds.
func (s spanRef) end() int64 {
	if s.t == nil {
		return 0
	}
	end := now()
	s.t.record(s.id, s.parent, s.name, s.start, end)
	return end - s.start
}

// record keeps a finished span.
func (t *tracer) record(id, parent uint64, name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
}

// addObs folds the counters, gauge maxima and histogram sums of an obs
// registry snapshot into the per-layer sums. Histogram values are kept
// only as sums, counts and a p99 bucket bound, named so: a bucket bound is
// never reported as a percentile.
func (t *tracer) addObs(s obs.Snapshot) {
	if t == nil {
		return
	}
	for name, v := range s.Counters {
		t.add(name, float64(v))
	}
	for name, g := range s.Gauges {
		t.maxInto(name+".max", float64(g.Max))
	}
	for name, h := range s.Histograms {
		t.add(name+".sum", float64(h.Sum))
		t.add(name+".count", float64(h.Count))
		t.maxInto(name+".p99_bucket_bound", float64(h.Quantile(0.99)))
	}
}

// writeSpans writes the span log as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		if err := enc.Encode(map[string]uint64{"dropped_spans": t.dropped}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow is the CPU time every thread of the process has used so far, in
// nanoseconds. The end-to-end times are read from this clock, not the
// wall clock: on a shared host the wall clock also counts the time other
// tenants hold the CPU (the kernel leaves hypervisor steal time out of
// this clock), which moves a wall time by tens of percent from run to
// run while the program's own work stays the same.
func cpuNow() int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return ts.Nano()
}

// cpuSince is the process CPU seconds used since c0 (a cpuNow reading).
func cpuSince(c0 int64) float64 { return float64(cpuNow()-c0) / 1e9 }

// settle collects the heap before a timed phase, so the phase's CPU time
// holds the collection of its own garbage and none left by the phase
// before it.
func settle() { runtime.GC() }
