package stat

import (
	"fmt"
	"strings"
)

// Histogram is the materializing fixed-bin histogram over [Lo, Hi),
// samples outside the range counted in Under/Over — the reference
// oracle StreamingHistogram's binning and rendering are pinned against
// (streamhist_test.go).
type Histogram struct {
	Lo, Hi      float64
	Counts      []int
	Under, Over int
	total       int
}

// NewHistogram creates a histogram with n equal bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stat: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Push records one sample.
func (h *Histogram) Push(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples pushed (including out-of-range).
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Mode returns the center of the fullest bin.
func (h *Histogram) Mode() float64 {
	best, bestCount := 0, -1
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return h.BinCenter(best)
}

// ASCII renders a simple fixed-width bar chart, one line per bin.
func (h *Histogram) ASCII(width int) string {
	if width <= 0 {
		width = 40
	}
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/maxC)
		fmt.Fprintf(&b, "%10.4g | %-*s %d\n", h.BinCenter(i), width, bar, c)
	}
	return b.String()
}
