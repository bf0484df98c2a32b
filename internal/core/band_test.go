package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/wave"
)

// matchScanCodes is the scan's oracle: the runs the scan adds must be
// those of the codes that evaluating the output at every scan point
// (EvalInto) and classifying it (ClassifyBatch) give, the code at point
// 0 and then every transition. It runs the scan exactOf runs for the
// output's type, bandScan for a multitone and blockScan otherwise, on
// sc's buffer, and returns the number of points it evaluated and the
// number of scan points. It also checks the cached stimulus samples
// against evaluating the stimulus on the scan times.
func matchScanCodes(t *testing.T, name string, s *System, out wave.Waveform, sc *TrialScratch) (evals, points int) {
	t.Helper()
	xs, err := s.scans()
	if err != nil {
		t.Fatal(err)
	}
	T, n := s.Period(), len(xs)-1
	ts := make([]float64, n+1)
	for i := range ts {
		ts[i] = T * float64(i) / float64(n)
	}
	wantXs, ys := make([]float64, n+1), make([]float64, n+1)
	wave.EvalInto(s.Stimulus, ts, wantXs)
	wave.EvalInto(out, ts, ys)
	for i, x := range wantXs {
		if math.Float64bits(x) != math.Float64bits(xs[i]) {
			t.Fatalf("%s: scan point %d: cached stimulus %v, evaluated %v", name, i, xs[i], x)
		}
	}
	codes := make([]monitor.Code, n+1)
	s.Bank.ClassifyBatch(xs, ys, codes)
	want := runsOf(codes)
	sc.trans = sc.trans[:0]
	if m, ok := out.(*wave.Multitone); ok {
		evals = bandScan(s.Bank, s.Stimulus, m, T, xs, &sc.trans)
	} else {
		evals = blockScan(s.Bank, out, T, xs, &sc.trans)
	}
	got := sc.trans
	for k := 0; k < min(len(got), len(want)); k++ {
		if got[k] != want[k] {
			i := min(got[k].At, want[k].At)
			t.Fatalf("%s: run %d: got %06b from scan point %d, evaluated %06b from %d (point %d: x %v, y %v)",
				name, k, got[k].Code, got[k].At, want[k].Code, want[k].At, i, xs[i], ys[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d runs, evaluated %d", name, len(got), len(want))
	}
	return evals, n + 1
}

// runsOf is a scan's runs derived from its per-point codes: the code at
// point 0, then every point whose code differs from the point before.
func runsOf(codes []monitor.Code) transitions {
	tr := transitions{{At: 0, Code: codes[0]}}
	for i := 1; i < len(codes); i++ {
		if codes[i] != codes[i-1] {
			tr = append(tr, signature.Transition{At: i, Code: codes[i]})
		}
	}
	return tr
}

// randomMultitone draws 1–6 tones on harmonics 1–8 of f0 with random
// amplitudes (up to 0.6 V over the square root of the tone count),
// phases and offset. Offsets in [-0.3, 1.3] carry many curves off the
// [0,1)² grid. Curves with high harmonics have tall bands, where a
// wrong half-width shows.
func randomMultitone(t *testing.T, src *rng.Stream, f0 float64) *wave.Multitone {
	t.Helper()
	n := 1 + int(6*src.Float64())
	harm := make([]int, n)
	amps := make([]float64, n)
	phases := make([]float64, n)
	for k := range harm {
		harm[k] = 1 + int(8*src.Float64())
		amps[k] = (1.2*src.Float64() - 0.6) / math.Sqrt(float64(n))
		phases[k] = 2 * math.Pi * src.Float64()
	}
	m, err := wave.NewMultitone(-0.3+1.6*src.Float64(), f0, harm, amps, phases)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBandScanMatchesEvaluatedScan checks the band scan code for code
// against evaluating and classifying every scan point:
//   - random multitones, on the paper's 8192-point scan and on an
//     8191-point one whose last block is short;
//   - random multitones on systems whose stimulus is a random multitone
//     too, at 8192 and 8191 points, so a block's x range varies as much
//     as its y range;
//   - a NaN and an infinite amplitude, whose curvature bound certifies
//     nothing, and a bank without a zone LUT: every point is evaluated;
//   - yield-style component dies on both observations, where at most
//     5 % of the scan points may be evaluated (3.1 % are block ends);
//   - 64- and 1024-point scans, whose long blocks certify few points.
func TestBandScanMatchesEvaluatedScan(t *testing.T) {
	curves := 1000
	if testing.Short() {
		curves = 200
	}
	s := Default()
	f0 := 1 / s.Period()
	sc := NewTrialScratch()
	src := rng.New(77)
	proven, evals, points := 0, 0, 0
	for i := 0; i < curves; i++ {
		e, n := matchScanCodes(t, fmt.Sprintf("curve %d", i), s, randomMultitone(t, src, f0), sc)
		if e < n {
			proven++
		}
		evals += e
		points += n
	}
	t.Logf("random curves: %d of %d with a proven band, %.1f %% of %d scan points evaluated",
		proven, curves, 100*float64(evals)/float64(points), points)
	if proven == 0 {
		t.Fatal("no random curve had a proven band")
	}
	odd := Default()
	odd.ScanN = 8191 // the last block is 31 steps long
	if e, n := matchScanCodes(t, "8191-point scan", odd, golden(t, odd), sc); e == n {
		t.Fatal("8191-point scan of the golden output proved no band")
	}
	for i := 0; i < 20; i++ {
		matchScanCodes(t, fmt.Sprintf("8191-point scan, curve %d", i), odd, randomMultitone(t, src, f0), sc)
	}

	// A random stimulus widens the blocks' x range by its own curvature
	// bound, which the paper's gentle stimulus barely stresses.
	stimProven := 0
	for i := 0; i < curves/2; i++ {
		ss, err := NewSystem(randomMultitone(t, src, f0), s.CUT, s.Bank, s.Capture)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			ss.ScanN = 8191
		}
		if e, n := matchScanCodes(t, fmt.Sprintf("%d-point scan, random stimulus %d", ss.ScanN, i), ss, randomMultitone(t, src, f0), sc); e < n {
			stimProven++
		}
	}
	t.Logf("random stimuli: %d of %d curves with a proven band", stimProven, curves/2)
	if stimProven == 0 {
		t.Fatal("no random-stimulus curve had a proven band")
	}

	evaluated := func(name string, s *System, out wave.Waveform) {
		t.Helper()
		if e, n := matchScanCodes(t, name, s, out, sc); e != n {
			t.Fatalf("%s: band scan evaluated %d of %d points, want every point", name, e, n)
		}
	}
	for _, bad := range []struct {
		name string
		edit func(*wave.Multitone)
	}{
		{"NaN amplitude", func(m *wave.Multitone) { m.Tones[0].Amp = math.NaN() }},
		{"infinite amplitude", func(m *wave.Multitone) { m.Tones[0].Amp = math.Inf(1) }},
	} {
		m := golden(t, s)
		bad.edit(m)
		evaluated(bad.name, s, m)
	}

	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		s := Default()
		s.Observe = obs
		evals, points := 0, 0
		for i, d := range componentDies(64, 0.05) {
			c, err := s.Deviated(d)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.output(c)
			if err != nil {
				t.Fatal(err)
			}
			e, n := matchScanCodes(t, fmt.Sprintf("%v die %d", obs, i), s, out, sc)
			evals += e
			points += n
		}
		share := float64(evals) / float64(points)
		t.Logf("%v yield dies: %.1f %% of scan points evaluated (block ends %.1f %%)", obs, 100*share, 100/float64(bandBlock))
		if share > 0.10 {
			t.Fatalf("%v yield dies: %.1f %% of scan points evaluated, want at most 10 %%", obs, 100*share)
		}
		if share > 0.05 {
			t.Fatalf("%v yield dies: %.1f %% of scan points evaluated, want at most 5 %% through the staircases", obs, 100*share)
		}
	}

	stuck, err := Default().Bank.WithStuckMonitor(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	noLUT := Default()
	noLUT.Bank = stuck
	for i := 0; i < 5; i++ {
		evaluated(fmt.Sprintf("bank without a LUT, curve %d", i), noLUT, randomMultitone(t, src, f0))
	}
	for _, n := range []int{64, 1024} {
		coarse := Default()
		coarse.ScanN = n
		matchScanCodes(t, fmt.Sprintf("%d-point scan", n), coarse, golden(t, coarse), sc)
	}
}

// TestBandScanWarmAllocationFree: on a warm trial scratch the exact
// signature of a multitone die output, the scan's transitions and their
// refinement included, allocates nothing.
func TestBandScanWarmAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := Default()
	c, err := s.Deviated(componentDies(1, 0.05)[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.output(c)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewTrialScratch()
	if _, err := s.exactOf(out, sc); err != nil {
		t.Fatal(err) // warm the scratch
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := s.exactOf(out, sc); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Fatalf("warm exact signature of a multitone allocates %.1f times per call, want 0", a)
	}
}

// golden returns the system's golden output as a multitone.
func golden(t *testing.T, s *System) *wave.Multitone {
	t.Helper()
	out, err := s.output(s.CUT)
	if err != nil {
		t.Fatal(err)
	}
	return out.(*wave.Multitone)
}

// TestBandScanGrazingPeaks plants, on each axis, a zone boundary that a
// single tone crosses only between the ends of one scan block. The tone
// peaks at the block's middle scan point, w/4 past a LUT cell edge,
// where w = M2·h²/8 + bandSlack is the block's half-width on that axis;
// its block ends sit 3w/4 below the edge. A line monitor's boundary
// lies w/8 past the edge, so the points around the peak code 1 and the
// block ends 0. The block's bounding box reaches the boundary's cell
// only with the whole of w: a box that drops or halves w on either axis
// proves code 0 for the peak's points.
func TestBandScanGrazingPeaks(t *testing.T) {
	const amp, edge = 0.45, 242.0 / 256
	s := Default()
	ts := func(i int) float64 { return scanTime(s.Period(), i, s.ScanN) }
	f0 := 1 / s.Period()
	mid := bandBlock / 2
	tone := func(offset float64) *wave.Multitone {
		phase := math.Pi/2 - 2*math.Pi*float64(mid)/float64(s.ScanN) // peak at scan point mid
		m, err := wave.NewMultitone(offset, f0, []int{1}, []float64{amp}, []float64{phase})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	h := ts(bandBlock) - ts(0)
	w := tone(0).CurvatureBound()*h*h/8 + bandSlack
	peak := tone(edge - 0.75*w - tone(0).Eval(ts(0)))
	if top := peak.Eval(ts(mid)); !(top > edge+w/8) {
		t.Fatalf("tone peaks at %v, want past the boundary at %v", top, edge+w/8)
	}
	line := func(in monitor.Input) *monitor.Bank {
		cfg := monitor.TableI()[2]
		cfg.Name = "line"
		cfg.Inputs = [4]monitor.Input{in, monitor.Bias(0), monitor.Bias(edge + w/8), monitor.Bias(0)}
		return monitor.NewBank(monitor.MustAnalytic(cfg))
	}
	sc := NewTrialScratch()

	sx, err := NewSystem(peak, s.CUT, line(monitor.X()), s.Capture)
	if err != nil {
		t.Fatal(err)
	}
	matchScanCodes(t, "stimulus peak", sx, golden(t, s), sc)

	sy := Default()
	sy.Bank = line(monitor.Y())
	matchScanCodes(t, "output peak", sy, peak, sc)
}

// randomSampled draws a sampled waveform of n samples over the given
// period: 1–4 tones on harmonics 1–6 of the period plus an offset in
// [0.1, 0.9], whose swing of up to ±0.5 V carries some curves off the
// [0,1) grid.
func randomSampled(t *testing.T, src *rng.Stream, n int, period float64) *wave.Sampled {
	t.Helper()
	type tone struct{ h, amp, phase float64 }
	tones := make([]tone, 1+int(4*src.Float64()))
	for k := range tones {
		tones[k] = tone{float64(1 + int(6*src.Float64())), 0.5 * src.Float64() / float64(len(tones)), 2 * math.Pi * src.Float64()}
	}
	off := 0.1 + 0.8*src.Float64()
	v := make([]float64, n)
	for i := range v {
		v[i] = off
		for _, tn := range tones {
			v[i] += tn.amp * math.Sin(2*math.Pi*tn.h*float64(i)/float64(n)+tn.phase)
		}
	}
	w, err := wave.NewSampled(v, period)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBandScanSampledMatchesEvaluatedScan checks the sampled outputs'
// block scan code for code against evaluating and classifying every
// scan point:
//   - SPICE yield dies (component σ = 2 %) on both observations, logging
//     the share of scan points evaluated;
//   - random sampled waveforms of 2–5000 samples, none a divisor of the
//     8192-point scan, on the scan's period, on periods shorter than
//     it (blocks wrap) and longer;
//   - NaN and ±Inf samples;
//   - a bank without a zone LUT and a waveform of another type (a sine),
//     where every point is evaluated.
func TestBandScanSampledMatchesEvaluatedScan(t *testing.T) {
	dies := 24
	if testing.Short() {
		dies = 8
	}
	sc, outSc := NewTrialScratch(), NewTrialScratch()
	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		s, err := DefaultSpice()
		if err != nil {
			t.Fatal(err)
		}
		s.Observe = obs
		evals, points := 0, 0
		for i, d := range componentDies(dies, 0.02) {
			c, err := s.Deviated(d)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.outputScratch(c, outSc)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := out.(*wave.Sampled); !ok {
				t.Fatalf("SPICE output is a %T, want *wave.Sampled", out)
			}
			e, n := matchScanCodes(t, fmt.Sprintf("SPICE %v die %d", obs, i), s, out, sc)
			evals += e
			points += n
		}
		share := float64(evals) / float64(points)
		t.Logf("SPICE %v yield dies: %.1f %% of scan points evaluated (%d of %d)", obs, 100*share, evals, points)
		if share > 0.25 {
			t.Fatalf("SPICE %v yield dies: %.1f %% of scan points evaluated, want at most 25 %%", obs, 100*share)
		}
	}

	s := Default()
	T := s.Period()
	src := rng.New(78)
	proven, curves := 0, 0
	for i := 0; i < 300; i++ {
		n := 2 + int(src.Uint64()%4999)
		if 8192%n == 0 {
			n++
		}
		period := T
		switch i % 3 {
		case 1:
			period = T * (0.05 + 0.9*src.Float64()) // the scan wraps
		case 2:
			period = T * (1 + src.Float64())
		}
		w := randomSampled(t, src, n, period)
		if i%10 == 9 {
			v := make([]float64, n)
			for j := range v {
				v[j] = w.Eval(period * float64(j) / float64(n))
			}
			for k := 0; k < 3; k++ {
				v[src.Uint64()%uint64(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k]
			}
			if err := w.Reuse(v, period); err != nil {
				t.Fatal(err)
			}
		}
		e, pts := matchScanCodes(t, fmt.Sprintf("sampled curve %d (%d samples, period %.3g T)", i, n, period/T), s, w, sc)
		if e < pts {
			proven++
		}
		curves++
	}
	t.Logf("random sampled curves: %d of %d with a proven block", proven, curves)
	if proven < curves/2 {
		t.Fatalf("only %d of %d random sampled curves had a proven block", proven, curves)
	}

	evaluated := func(name string, s *System, out wave.Waveform) {
		t.Helper()
		if e, n := matchScanCodes(t, name, s, out, sc); e != n {
			t.Fatalf("%s: block scan evaluated %d of %d points, want every point", name, e, n)
		}
	}
	stuck, err := Default().Bank.WithStuckMonitor(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	noLUT := Default()
	noLUT.Bank = stuck
	for i := 0; i < 5; i++ {
		evaluated(fmt.Sprintf("bank without a LUT, sampled curve %d", i), noLUT, randomSampled(t, src, 2048, T))
	}
	evaluated("sine output", s, wave.Sine{Amp: 0.2, Freq: 1 / T, Offset: 0.5})
}

// FuzzScanTransitions: the runs a scan adds, the code at scan point 0
// and every transition, must be those of the codes that per-point
// ClassifyBatch gives (matchScanCodes). kind&7 % 3 picks the output:
//   - 0, a random multitone (randomMultitone) on the paper's stimulus,
//     or on a random multitone stimulus when bit 3 of kind is set;
//   - 1, a component die of the golden CUT, each drift spread·Gauss with
//     |spread| folded below 1, on the observation bit 4 picks;
//   - 2, a random sampled waveform of 2–5000 samples over period·T
//     (|period| folded into [0.05, 2)), with three NaN or ±Inf samples
//     when bit 3 is set.
//
// Bit 5 swaps in a bank without a zone LUT. The scan takes
// 2 + steps%8191 steps; seed draws the random curves.
func FuzzScanTransitions(f *testing.F) {
	for _, s := range []struct {
		kind        uint8
		seed        uint64
		steps       uint16
		spread, per float64
	}{
		{0, 1, 8190, 0, 0},        // random multitone, 8192 steps
		{0 | 8, 2, 8189, 0, 0},    // random stimulus, 8191 steps
		{1, 3, 8190, 0.02, 0},     // low-pass die
		{1 | 16, 4, 8190, 0.2, 0}, // band-pass die
		{2, 5, 8190, 0, 0.95},     // sampled, the scan's period
		{2 | 8, 6, 1022, 0, 0.4},  // sampled with non-finite samples, wrapping
		{0 | 32, 7, 4000, 0, 0},   // no LUT, multitone
		{2 | 32, 8, 62, 0, 0.5},   // no LUT, sampled
		{1, 9, 0, 0.05, 0},        // a 2-step scan
	} {
		f.Add(s.kind, s.seed, s.steps, s.spread, s.per)
	}
	fold := func(u float64) float64 {
		if u = math.Abs(math.Mod(u, 1)); math.IsNaN(u) {
			return 0.5
		}
		return u
	}
	stuck, err := Default().Bank.WithStuckMonitor(2, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, steps uint16, spread, per float64) {
		s, src, pick := Default(), rng.New(seed), int(kind&7)%3
		f0 := 1 / s.Period()
		if kind&8 != 0 && pick == 0 {
			ss, err := NewSystem(randomMultitone(t, src, f0), s.CUT, s.Bank, s.Capture)
			if err != nil {
				t.Fatal(err)
			}
			s = ss
		}
		if kind&32 != 0 {
			s.Bank = stuck
		}
		s.ScanN = 2 + int(steps)%8191
		var out wave.Waveform
		switch pick {
		case 0:
			out = randomMultitone(t, src, f0)
		case 1:
			if kind&16 != 0 {
				s.Observe = ObserveBP
			}
			sigma := fold(spread)
			c, err := s.Deviated(Deviation{RDrift: src.Gauss(0, sigma), RQDrift: src.Gauss(0, sigma), RGDrift: src.Gauss(0, sigma), CDrift: src.Gauss(0, sigma)})
			if err != nil {
				return // a drift at or below −1
			}
			if out, err = s.output(c); err != nil {
				t.Fatal(err)
			}
		default:
			n := 2 + int(src.Uint64()%4999)
			w := randomSampled(t, src, n, s.Period()*(0.05+1.95*fold(per)))
			if kind&8 != 0 {
				v := make([]float64, n)
				for j := range v {
					v[j] = w.Eval(w.Period() * float64(j) / float64(n))
				}
				for k := 0; k < 3; k++ {
					v[src.Uint64()%uint64(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k]
				}
				if err := w.Reuse(v, w.Period()); err != nil {
					t.Fatal(err)
				}
			}
			out = w
		}
		matchScanCodes(t, fmt.Sprintf("kind %d seed %d", kind, seed), s, out, NewTrialScratch())
	})
}
