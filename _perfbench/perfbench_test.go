package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// A reported p99 must never exceed the reported max: percentiles come from
// the raw samples, not from power-of-two bucket bounds (a bucket bound of
// 32.8 ms once read as a "p99" above a run's 29.2 ms max).
func TestP99NeverExceedsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]float64{
		{29.2},
		{1, 2},
		{29.2, 29.2, 29.2},
		{0.5, 16.4, 16.4, 29.2},
	}
	for n := 1; n <= 2000; n *= 3 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 10
		}
		cases = append(cases, xs)
	}
	for _, xs := range cases {
		s := summarize(append([]float64(nil), xs...))
		if s.P99 > s.Max || s.P50 > s.P99 {
			t.Fatalf("n=%d: p50 %v, p99 %v, max %v", len(xs), s.P50, s.P99, s.Max)
		}
		if s.N != len(xs) {
			t.Fatalf("summary counts %d samples, got %d", s.N, len(xs))
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// The metric tables the program prints must be exactly BENCHMARK.json's.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}

// smokeSeed is a seed no default uses.
const smokeSeed = 424242

// Every workload the program has (BENCHMARK.json may list fewer), at tiny
// scale, passes every oracle and reports every named metric with its
// unit: end-to-end untraced, per-layer traced.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name, seed: smokeSeed, seconds: 0.2, trace: traced,
				scale: "tiny", out: t.TempDir(), commit: "test", workers: 2,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if traced {
				if ov := res.Metrics["trace_overhead"].Value; !(ov > 0) {
					t.Errorf("%s: trace_overhead %v", name, ov)
				}
			}
		}
	}
}
