// Package stats provides the small statistical helpers the experiment
// harness uses: summary statistics and fixed-width histograms (Fig. 14).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic descriptive statistics of a sample. Q1 and Q3 are
// the lower and upper quartiles, linearly interpolated between order
// statistics, so Q3−Q1 is the interquartile range.
type Summary struct {
	N              int
	Min, Max, Mean float64
	Q1, Median, Q3 float64
	StdDev         float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
	return s
}

// quantile returns the q-quantile of an ascending sample, interpolating
// linearly between the two nearest order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// Histogram is a fixed-bin-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Overflow counts samples ≥ Hi; underflow samples < Lo are clamped
	// into the first bin (Fig. 14's axis starts at 0 so this never
	// triggers for percentages).
	Overflow int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		//cdc:invariant constructor precondition: harness code builds histograms from constants
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if x >= h.Hi {
		h.Overflow++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	h.Counts[i]++
}

// Total reports the number of recorded samples, including overflow.
func (h *Histogram) Total() int {
	n := h.Overflow
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BinLabel returns the lower edge of bin i, for axis labels.
func (h *Histogram) BinLabel(i int) float64 {
	return h.Lo + (h.Hi-h.Lo)*float64(i)/float64(len(h.Counts))
}

// Render draws a textual bar chart of the histogram, one row per bin,
// scaled so the largest bin spans width characters.
func (h *Histogram) Render(width int) string {
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&b, "%6.1f | %-*s %d\n", h.BinLabel(i), width, bar, c)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "%6s | overflow %d\n", ">=", h.Overflow)
	}
	return b.String()
}
