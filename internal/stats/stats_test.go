package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Min != 5 || s.Max != 5 || s.Mean != 5 || s.Median != 5 || s.StdDev != 0 {
		t.Fatalf("got %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
	want := math.Sqrt(32.0 / 7.0) // sample stddev
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("Median = %v, want 5", s.Median)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	// Sorted: 2 4 4 4 5 5 7 9. Q1 sits at position 1.75 (4), Q3 at 5.25
	// (5 + 0.25·(7−5) = 5.5).
	s := Summarize([]float64{9, 5, 2, 4, 7, 4, 5, 4})
	if s.Q1 != 4 || s.Q3 != 5.5 {
		t.Errorf("Q1/Q3 = %v/%v, want 4/5.5", s.Q1, s.Q3)
	}
	if one := Summarize([]float64{3}); one.Q1 != 3 || one.Q3 != 3 {
		t.Errorf("single-sample quartiles = %v/%v, want 3/3", one.Q1, one.Q3)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 100, 20) // 5%-wide bins, like Fig. 14
	h.Add(0)
	h.Add(4.99)
	h.Add(5)
	h.Add(37.5)
	h.Add(99.999)
	h.Add(100) // overflow
	if h.Counts[0] != 2 {
		t.Errorf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 {
		t.Errorf("bin 1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[7] != 1 { // 37.5 falls in [35,40)
		t.Errorf("bin 7 = %d, want 1", h.Counts[7])
	}
	if h.Counts[19] != 1 {
		t.Errorf("bin 19 = %d, want 1", h.Counts[19])
	}
	if h.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Add(-3)
	if h.Counts[0] != 1 {
		t.Fatalf("negative sample not clamped into first bin: %v", h.Counts)
	}
}

func TestHistogramBinLabel(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	if h.BinLabel(0) != 0 || h.BinLabel(1) != 5 || h.BinLabel(19) != 95 {
		t.Fatalf("labels: %v %v %v", h.BinLabel(0), h.BinLabel(1), h.BinLabel(19))
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Add(1)
	h.Add(2)
	h.Add(7)
	h.Add(12)
	out := h.Render(10)
	if !strings.Contains(out, "##########") {
		t.Errorf("largest bin not full width:\n%s", out)
	}
	if !strings.Contains(out, "overflow 1") {
		t.Errorf("overflow row missing:\n%s", out)
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(10, 0, 5)
}
