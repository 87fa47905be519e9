// Command perfbench is the repository's benchmark: one command that runs
// a named workload through the record, replay and ingest layers' public
// entry points, checks every repetition against a correctness oracle, and
// prints every metric by name and unit.
//
//	go run . --workload mcb --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - mcb: the paper's Monte Carlo benchmark on 8 simulated ranks, run
//     plain, under cdc.Record (dir layout, row-count flush cadence) and
//     under cdc.Replay on a different network seed;
//   - codec: seeded synthetic rank streams pushed straight through
//     core.NewEncoder into the sharded layout, then read back through
//     cdc.OpenRankRecord with parallel decode;
//   - ingest: an in-process ingest daemon fed by ingestclient sessions, in
//     an open-loop phase at a fixed offered rate and a closed-loop burst.
//
// With --trace 0 the run measures end-to-end metrics with tracing off.
// Their times are process CPU seconds, not wall time (see cpuNow).
// With --trace 1 it alternates untraced and traced repetitions: the traced
// ones time every call the benchmark makes into a layer, read the obs
// counters the program exports, keep coarse spans in memory, and report
// per-layer metrics plus trace_overhead (traced ÷ untraced record_s).
// Spans are written as JSON lines under --out when the run ends.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. attempted counts
// repetitions; a repetition whose oracle fails counts as failed and its
// timings are left out of every reported value.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports. Each
// is defined on every workload; the definitions per workload are in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"plain_s", "s"},
	{"record_s", "s"},
	{"replay_s", "s"},
	{"decode_s", "s"},
	{"bytes_per_event", "B/event"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer
// the workload bypasses reports 0, which is the predicted "no change".
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, mode := range []string{"plain", "record", "replay"} {
		for _, op := range opNames {
			defs = append(defs,
				metricDef{"mpi." + mode + "." + op + ".ns", "ns"},
				metricDef{"mpi." + mode + "." + op + ".calls", "count"})
		}
		defs = append(defs, metricDef{"app." + mode + ".compute.ns", "ns"})
	}
	return append(defs, []metricDef{
		{"net.messages", "count"},
		{"net.inflight.max", "count"},

		{"record.queue.enqueued", "count"},
		{"record.queue.stalls", "count"},
		{"record.queue.depth.max", "count"},
		{"record.flushes", "count"},
		{"record.enqueue_per_s", "1/s"},
		{"record.drain_per_s", "1/s"},
		{"record.drain.ns", "ns"},

		{"encode.new.ns", "ns"},
		{"encode.observe.ns", "ns"},
		{"encode.flushall.ns", "ns"},
		{"encode.close.ns", "ns"},
		{"encode.bytes.raw", "B"},
		{"encode.bytes.re", "B"},
		{"encode.bytes.pe", "B"},
		{"encode.bytes.lpe", "B"},
		{"encode.bytes.gzip", "B"},
		{"encode.chunks", "count"},
		{"encode.stage.ns.sum", "ns"},
		{"encode.stage.ns.p99_bucket_bound", "ns"},

		{"store.create.ns", "ns"},
		{"store.open_writer.ns", "ns"},
		{"store.write.ns", "ns"},
		{"store.write.bytes", "B"},
		{"store.write.calls", "count"},
		{"store.commit.ns", "ns"},
		{"store.commit.calls", "count"},
		{"store.commit.p50_us", "us"},
		{"store.commit.p99_us", "us"},
		{"store.commit.max_us", "us"},
		{"store.close.ns", "ns"},
		{"store.finalize.ns", "ns"},
		{"store.open_reader.ns", "ns"},
		{"store.read.ns", "ns"},
		{"store.read.bytes", "B"},

		{"decode.open.ns", "ns"},
		{"decode.next.ns", "ns"},
		{"decode.close.ns", "ns"},
		{"decode.frames", "count"},
		{"decode.bytes_in", "B"},
		{"decode.stage.ns.sum", "ns"},
		{"decode.stage.ns.p99_bucket_bound", "ns"},

		{"replay.releases", "count"},
		{"replay.optimistic", "count"},
		{"replay.stall.polls", "count"},
		{"replay.clockwait.ns", "ns"},
		{"replay.pool.depth.max", "count"},
		{"replay.stall_polls_per_release", "ratio"},
		{"replay.optimistic_share", "ratio"},
		{"replay.feed.ns", "ns"},
		{"replay.feed.frames", "count"},

		{"ingest.observe.ns", "ns"},
		{"ingest.flush.ns", "ns"},
		{"ingest.close.ns", "ns"},
		{"ingest.gen_late_p99_ms", "ms"},
		{"ingest.gen_late_max_ms", "ms"},
		{"ingest.throttles", "count"},
		{"ingest.resumes", "count"},
		{"ingest.queue.stalls", "count"},
		{"ingest.queue.depth.max", "count"},
		{"ingest.enqueue.ns.sum", "ns"},
		{"ingest.enqueue.ns.p99_bucket_bound", "ns"},

		{"wall.plain.ns", "ns"},
		{"wall.record.ns", "ns"},
		{"wall.replay.ns", "ns"},
		{"wall.decode.ns", "ns"},

		{"remainder.plain.ns", "ns"},
		{"remainder.record.ns", "ns"},
		{"remainder.replay.ns", "ns"},
		{"remainder.decode.ns", "ns"},

		{"trace_overhead", "ratio"},
	}...)
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	out      string
	commit   string
	workers  int // GOMAXPROCS: pool widths and client connections
}

// repOut is one repetition's values, or the oracle failure that voids
// it. Values beyond the end-to-end metrics are the workload's own figures,
// reported as medians on the "figures" line.
type repOut struct {
	values map[string]float64
	err    error
}

// bench is one workload instance after set-up.
type bench interface {
	// rep runs one repetition; tr is nil when tracing is off.
	rep(tr *tracer, n int) repOut
	// inputs reports the measured input properties.
	inputs() map[string]any
	// close stops everything the workload started and removes its files.
	close() error
}

// setupCount is how many times a run sets the workload up; setup_s is the
// median.
const setupCount = 5

// minReps bounds the repetitions from below, whatever --seconds says.
const minReps = 3

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{workers: runtime.GOMAXPROCS(0)}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: mcb, codec or ingest")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measuring time")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&cfg.scale, "scale", "full", "input size: full or tiny")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for records and spans")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision, reported with the inputs")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.scale != "full" && cfg.scale != "tiny" {
		return cfg, fmt.Errorf("--scale must be full or tiny, got %q", cfg.scale)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want mcb, codec or ingest)", cfg.workload)
	}
	return cfg, nil
}

// workloads maps each workload name to its set-up function. Set-up makes
// the inputs from the seed and creates the store or daemon; it is what
// setup_s times.
var workloads = map[string]func(cfg config, dir string) (bench, error){
	"mcb":    newMCB,
	"codec":  newCodec,
	"ingest": newIngest,
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) (*result, error) {
	runDir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, b2i(cfg.trace), os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set up several times and keep the last instance.
	var setups []float64
	var b bench
	for i := 0; i < setupCount; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		dir := filepath.Join(runDir, "setup"+strconv.Itoa(i))
		c0 := cpuNow()
		nb, err := workloads[cfg.workload](cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSince(c0))
		b = nb
	}
	defer func() {
		if err := b.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	}()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &result{Metrics: make(map[string]metricValue)}
	var reps, traced []map[string]float64
	deadline := now() + int64(cfg.seconds*1e9)
	least := minReps
	if cfg.trace {
		least = 2 // one untraced, one traced
	}
	for n := 0; n < least || now() < deadline; n++ {
		// Start every repetition from a collected heap, so its transient
		// peak (and peak_rss_mb) does not depend on garbage left by the
		// repetitions before it.
		runtime.GC()
		var rt *tracer
		if cfg.trace && n%2 == 1 {
			rt = tr
			rt.setRun(fmt.Sprintf("%s-seed%d-rep%d", cfg.workload, cfg.seed, n))
		}
		out := b.rep(rt, n)
		fmt.Fprintf(os.Stderr, "perfbench: rep %d traced=%v %v\n", n, rt != nil, out.values)
		res.Attempted++
		if out.err != nil {
			// The run is failed; repeating would only add time.
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: rep %d: oracle failed: %v\n", n, out.err)
			break
		}
		if rt != nil {
			traced = append(traced, out.values)
		} else {
			reps = append(reps, out.values)
		}
	}
	res.Correct = res.Failed == 0

	inputs := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"commit":      cfg.commit,
		"repetitions": len(reps) + len(traced),
	}
	for k, v := range b.inputs() {
		inputs[k] = v
	}
	printJSON("inputs", inputs)

	values := make(map[string]float64)
	if cfg.trace {
		layerMetrics(tr, traced, reps, values)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		}
		spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeSpans(spans); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Medians over the good repetitions. A failed run may have none; its
	// values stay 0 beside correct: false.
	if len(reps) > 0 {
		for name := range reps[0] {
			values[name] = medianOf(reps, name)
		}
		printJSON("figures", values)
	}
	values["setup_s"] = median(setups)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	values["peak_rss_mb"] = rss
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// medianOf is the median of one value across repetitions.
func medianOf(reps []map[string]float64, name string) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r[name])
	}
	return median(xs)
}

// layerMetrics turns the traced repetitions' sums into per-repetition
// per-layer values: sums and counts are divided by the traced repetition
// count, maxima and exact quantiles are taken over all traced samples.
func layerMetrics(tr *tracer, traced, untraced []map[string]float64, out map[string]float64) {
	if len(traced) == 0 || len(untraced) == 0 {
		return // a failed run: every per-layer value stays 0
	}
	n := float64(len(traced))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for name, v := range tr.sums {
		if strings.HasSuffix(name, ".max") || strings.HasSuffix(name, "_bucket_bound") {
			out[name] = v
		} else {
			out[name] = v / n
		}
	}
	commit := summarize(tr.samples["store.commit.us"])
	out["store.commit.p50_us"] = commit.P50
	out["store.commit.p99_us"] = commit.P99
	out["store.commit.max_us"] = commit.Max
	late := summarize(tr.samples["ingest.gen_late_ms"])
	out["ingest.gen_late_p99_ms"] = late.P99
	out["ingest.gen_late_max_ms"] = late.Max
	if rel := out["replay.releases"]; rel > 0 {
		out["replay.stall_polls_per_release"] = out["replay.stall.polls"] / rel
		out["replay.optimistic_share"] = out["replay.optimistic"] / rel
	}
	if d := out["record.drain.ns"]; d > 0 {
		out["record.drain_per_s"] = out["record.queue.enqueued"] / (d / 1e9)
	}
	if p := out["record.produce.ns"]; p > 0 {
		out["record.enqueue_per_s"] = out["record.queue.enqueued"] / (p / 1e9)
	}
	out["trace_overhead"] = medianOf(traced, "record_s") / medianOf(untraced, "record_s")
}

// printJSON prints one labelled JSON line (not the result line).
func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
