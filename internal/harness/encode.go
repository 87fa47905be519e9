package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/stats"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// EncodeWorkerRun is one worker-count measurement of the chunk-encoding
// pipeline over the shared synthetic workload: the median of Reps timed
// repetitions, interleaved with the other worker counts' repetitions so
// host speed drift hits every width alike.
type EncodeWorkerRun struct {
	// Workers is the EncoderOptions.EncodeWorkers setting; 1 builds and
	// commits every chunk inline on the calling goroutine.
	Workers int `json:"workers"`
	// NsTotal is the median wall-clock encode time for the whole stream.
	NsTotal int64 `json:"ns_total"`
	// EventsPerSec is the median per-repetition throughput, and
	// EventsPerSecIQR the interquartile range of those throughputs (the
	// spread that decides whether two widths differ at all). NsPerEvent
	// is the per-event view of NsTotal.
	EventsPerSec    float64 `json:"events_per_sec"`
	EventsPerSecIQR float64 `json:"events_per_sec_iqr"`
	NsPerEvent      float64 `json:"ns_per_event"`
	// Speedup is this width's median throughput over the workers=1 median.
	Speedup float64 `json:"speedup"`
	// AllocsPerEvent is the median heap allocations per observed event
	// (mallocs from runtime.MemStats), the pooling-effectiveness gauge.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Bytes is the record size produced (identical across worker counts).
	Bytes int64 `json:"bytes"`
	// Digest is the SHA-256 of the produced record stream.
	Digest string `json:"digest"`
}

// EncodeResult is the machine-readable BENCH_encode.json payload: the
// serial-vs-parallel encode throughput comparison plus the byte-identity
// check across worker counts.
type EncodeResult struct {
	Seed   int64 `json:"seed"`
	Full   bool  `json:"full"`
	Events int   `json:"events"`
	Rows   int   `json:"rows"`
	// Reps is the number of timed repetitions per worker count.
	Reps int `json:"reps"`
	// Identical reports that every repetition at every worker count
	// produced the exact same record bytes as the workers=1 reference
	// (the ordered-commit format guarantee, checked by digest).
	Identical bool              `json:"identical_output"`
	Runs      []EncodeWorkerRun `json:"runs"`
}

// Validate checks the capture is usable as a regression gate.
func (r *EncodeResult) Validate() error {
	if len(r.Runs) < 2 {
		return fmt.Errorf("encode: need a workers=1 run and at least one pooled run, have %d", len(r.Runs))
	}
	if !r.Identical {
		return fmt.Errorf("encode: output diverged across worker counts or repetitions")
	}
	for _, run := range r.Runs {
		if run.EventsPerSec <= 0 {
			return fmt.Errorf("encode: workers=%d measured no throughput", run.Workers)
		}
	}
	return nil
}

// WriteJSON writes the result to path (indented, trailing newline).
func (r *EncodeResult) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// encodeStream is the fixed multi-callsite workload every worker count
// encodes: three MCB-like streams interleaved the way a recorder's CDC
// thread sees them.
type encodeStream struct {
	callsites []uint64
	rows      []Row
	events    int
}

func makeEncodeStream(events int, seed int64) encodeStream {
	s := encodeStream{callsites: []uint64{0x10, 0x20, 0x30}}
	perSite := make([][]tables.Event, len(s.callsites))
	for i := range s.callsites {
		perSite[i] = workload.Stream(workload.MCBLike(events/len(s.callsites), 1, seed+int64(i)))
	}
	// Round-robin interleave, emulating arrival interleaving across
	// concurrent callsites.
	for n := 0; ; n++ {
		emitted := false
		for i, evs := range perSite {
			if n < len(evs) {
				s.rows = append(s.rows, Row{Callsite: s.callsites[i], Ev: evs[n]})
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	for _, r := range s.rows {
		if r.Ev.Flag {
			s.events++
		}
	}
	return s
}

// encodeOnce drives one encoder over the stream and reports wall time,
// malloc count, and the produced bytes.
func encodeOnce(s encodeStream, workers int, chunkEvents int) (ns int64, mallocs uint64, out []byte, err error) {
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	enc, err := core.NewEncoder(&buf, core.EncoderOptions{
		ChunkEvents:   chunkEvents,
		EncodeWorkers: workers,
	})
	if err != nil {
		return 0, 0, nil, err
	}
	for i, cs := range s.callsites {
		if err := enc.RegisterCallsite(cs, fmt.Sprintf("bench/site%d", i)); err != nil {
			return 0, 0, nil, err
		}
	}
	for _, r := range s.rows {
		if err := enc.Observe(r.Callsite, r.Ev); err != nil {
			return 0, 0, nil, err
		}
	}
	if err := enc.Close(); err != nil {
		return 0, 0, nil, err
	}
	ns = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs, buf.Bytes(), nil
}

// encodeReps is the number of timed repetitions per worker count; the
// reported throughput is their median (the repeat-and-median method of
// the benchmark, since one shot on a shared host swings by 2×).
const encodeReps = 7

// Encode measures the chunk-encoding pipeline at EncodeWorkers 1/2/4/8 over
// one shared synthetic workload, reporting median throughput with its
// interquartile range, allocations per event, and the byte-identity of
// every output against the workers=1 reference. Each round runs every
// width once, so the repetitions interleave across widths.
func Encode(cfg Config) (*EncodeResult, error) {
	cfg.fill()
	events := cfg.pick(60_000, 300_000)
	s := makeEncodeStream(events, cfg.Seed+11)
	result := &EncodeResult{
		Seed:      cfg.Seed,
		Full:      cfg.Full,
		Events:    s.events,
		Rows:      len(s.rows),
		Reps:      encodeReps,
		Identical: true,
	}
	const chunkEvents = 512 // enough chunks in flight to exercise the pool
	widths := []int{1, 2, 4, 8}

	cfg.printf("Encode pipeline: 1/2/4/8 workers over %d rows (%d matched events), median of %d interleaved runs\n",
		len(s.rows), s.events, encodeReps)
	// A warm-up run per width primes the builder/job/gzip pools so the
	// timed repetitions see steady state.
	for _, workers := range widths {
		if _, _, _, err := encodeOnce(s, workers, chunkEvents); err != nil {
			return nil, fmt.Errorf("encode: warmup workers=%d: %w", workers, err)
		}
	}
	ns := make([][]float64, len(widths))
	eps := make([][]float64, len(widths))
	allocs := make([][]float64, len(widths))
	digests := make([]string, len(widths))
	bytesOut := make([]int64, len(widths))
	for rep := 0; rep < encodeReps; rep++ {
		for i, workers := range widths {
			n, mallocs, out, err := encodeOnce(s, workers, chunkEvents)
			if err != nil {
				return nil, fmt.Errorf("encode: workers=%d: %w", workers, err)
			}
			sum := sha256.Sum256(out)
			if d := hex.EncodeToString(sum[:]); rep == 0 {
				digests[i], bytesOut[i] = d, int64(len(out))
			} else if d != digests[i] {
				result.Identical = false
			}
			ns[i] = append(ns[i], float64(n))
			eps[i] = append(eps[i], float64(s.events)/(float64(n)/1e9))
			allocs[i] = append(allocs[i], float64(mallocs)/float64(s.events))
		}
	}

	cfg.printf("%8s %12s %12s %12s %10s %14s %10s\n",
		"workers", "total", "events/s", "IQR", "speedup", "allocs/event", "bytes")
	refEps := stats.Summarize(eps[0]).Median
	for i, workers := range widths {
		e := stats.Summarize(eps[i])
		nsMed := stats.Summarize(ns[i]).Median
		run := EncodeWorkerRun{
			Workers:         workers,
			NsTotal:         int64(nsMed),
			EventsPerSec:    e.Median,
			EventsPerSecIQR: e.Q3 - e.Q1,
			NsPerEvent:      nsMed / float64(s.events),
			AllocsPerEvent:  stats.Summarize(allocs[i]).Median,
			Bytes:           bytesOut[i],
			Digest:          digests[i],
		}
		if run.Digest != digests[0] {
			result.Identical = false
		}
		run.Speedup = run.EventsPerSec / refEps
		result.Runs = append(result.Runs, run)
		cfg.printf("%8d %12s %12.0f %12.0f %9.2fx %14.3f %10d\n",
			workers, time.Duration(run.NsTotal).Round(time.Microsecond), run.EventsPerSec,
			run.EventsPerSecIQR, run.Speedup, run.AllocsPerEvent, run.Bytes)
	}
	if !result.Identical {
		cfg.printf("WARNING: encode output diverged across worker counts or repetitions\n")
	}
	if err := result.Validate(); err != nil {
		return result, err
	}
	return result, nil
}
