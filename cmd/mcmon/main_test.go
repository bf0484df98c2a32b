package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/mos"
	"repro/internal/stat"
)

// materializedSpread is the historic spread-study implementation the
// streaming one replaced: collect every non-NaN crossing, Summarize,
// then bin in a second pass over the retained slice. Kept here as the
// reference the pin test compares against byte for byte.
func materializedSpread(t *testing.T, monIdx, dies int, x float64, seed uint64) string {
	t.Helper()
	cfg := monitor.TableI()[monIdx-1]
	a := monitor.MustAnalytic(cfg)
	variation := mos.Default65nmVariation()
	eng := campaign.Engine{Workers: 1, Seed: seed + 1}
	ys, err := campaign.Reduce(context.Background(), eng, dies,
		campaign.Reducer[float64, []float64]{
			Fold: func(acc []float64, _ int, y float64) []float64 {
				if !math.IsNaN(y) {
					acc = append(acc, y)
				}
				return acc
			},
			Merge: func(into, next []float64) []float64 { return append(into, next...) },
		},
		func(d int) (float64, error) {
			die := variation.SampleDie(eng.Stream(d))
			devs := a.Devices()
			for j := range devs {
				devs[j] = die.Perturb(devs[j])
			}
			if y, ok := a.WithDevices(devs).BoundaryY(x, 0, 1); ok {
				return y, nil
			}
			return math.NaN(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if len(ys) == 0 {
		fmt.Fprintf(&b, "\nno boundary crossing at x = %.3f\n", x)
		return b.String()
	}
	sum := stat.Summarize(ys)
	fmt.Fprintf(&b, "\nboundary y at x = %.3f over %d dies: mean %.4f, std %.4f, 95%% [%.4f, %.4f]\n",
		x, len(ys), sum.Mean, sum.Std, sum.P2_5, sum.P97_5)
	b.WriteString(materializedHistogram(ys, sum.Min-1e-6, sum.Max+1e-6, 15, 40))
	return b.String()
}

// materializedHistogram bins a retained sample into n equal bins over
// [lo, hi) and renders the historic bar chart — bin center, a bar of
// width scaled to the fullest bin, the count — one line per bin.
func materializedHistogram(ys []float64, lo, hi float64, n, width int) string {
	counts := make([]int, n)
	for _, y := range ys {
		if y < lo || y >= hi {
			continue
		}
		counts[min(int(float64(n)*(y-lo)/(hi-lo)), n-1)]++
	}
	maxC := 1
	for _, c := range counts {
		maxC = max(maxC, c)
	}
	var b strings.Builder
	w := (hi - lo) / float64(n)
	for i, c := range counts {
		center := lo + (float64(i)+0.5)*w
		fmt.Fprintf(&b, "%10.4g | %-*s %d\n", center, width, strings.Repeat("#", c*width/maxC), c)
	}
	return b.String()
}

// TestSpreadStudyPinnedToMaterializedPath pins the mcmon default run's
// spread output: the streamed two-pass study (running moments + two
// single-pass histograms) renders byte-identical text to the historic
// materializing implementation, at every worker count.
func TestSpreadStudyPinnedToMaterializedPath(t *testing.T) {
	const (
		monIdx = 3
		dies   = 500
		x      = 0.4
		seed   = uint64(1)
	)
	want := materializedSpread(t, monIdx, dies, x, seed)
	if !strings.Contains(want, "boundary y at x = 0.400 over") {
		t.Fatalf("reference output malformed:\n%s", want)
	}
	for _, w := range []int{1, 4, 8} {
		var got strings.Builder
		if err := spreadStudy(context.Background(), &got, monIdx, dies, x, seed, w); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("workers=%d: streamed spread study diverged from the materializing path\n--- streamed ---\n%s--- materialized ---\n%s",
				w, got.String(), want)
		}
	}
}

// The no-crossing branch still renders the historic message.
func TestSpreadStudyNoCrossing(t *testing.T) {
	var got strings.Builder
	// x far outside the unit square: no boundary crossing exists.
	if err := spreadStudy(context.Background(), &got, 3, 8, 40.0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "no boundary crossing") {
		t.Fatalf("output = %q", got.String())
	}
}
