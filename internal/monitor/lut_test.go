package monitor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mos"
	"repro/internal/rng"
)

// matchClassify checks the three LUT entries against Classify on every
// point: ClassifyLUT point by point (on a fresh bank it builds the LUT
// itself), ClassifyBatch over the whole slice, and ClassifyRect on
// rectangles from each point (matchRect). It returns how many
// rectangles ClassifyRect answered.
func matchClassify(t *testing.T, name string, bank *Bank, xs, ys []float64) (rects int) {
	t.Helper()
	for i := range xs {
		if got, want := bank.ClassifyLUT(xs[i], ys[i]), bank.Classify(xs[i], ys[i]); got != want {
			t.Fatalf("%s: point %d (%v, %v): single %016b, scalar %016b", name, i, xs[i], ys[i], got, want)
		}
	}
	codes := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes)
	for i := range xs {
		if want := bank.Classify(xs[i], ys[i]); codes[i] != want {
			t.Fatalf("%s: point %d (%v, %v): batch %016b, scalar %016b", name, i, xs[i], ys[i], codes[i], want)
		}
	}
	return matchRect(t, name, bank, xs, ys)
}

// matchRect checks ClassifyRect on rectangles that hold each point
// (x, y): the point itself, vertical and horizontal segments from 0.4 to
// 18 fine cells long, and boxes from 1/4 to 3 coarse cells a side. On
// the grid it must answer exactly when walking every column of the
// rectangle through the staircases proves every monitor with one code
// (rectStairs), and Classify must give the answer at the rectangle's
// corners, its edge midpoints and a 5×5 interior grid. It must refuse a
// rectangle off the [0,1)² grid (NaN and ±Inf included), a reversed
// one, and every rectangle of a bank without a LUT. It returns how many
// rectangles it answered.
func matchRect(t *testing.T, name string, bank *Bank, xs, ys []float64) (answers int) {
	t.Helper()
	const cell, fine = 1.0 / lutCells, 1.0 / lutFine
	l := bank.lut()
	for i, x := range xs {
		y := ys[i]
		h := fine * float64(1+i%8) * 4 / 9
		d := cell * float64(1+i%12) / 4
		for _, r := range [][4]float64{
			{x, x, y, y},
			{x, x, y, y + h}, {x, x, y - h, y}, {x, x, y - 3*h, y + 2*h},
			{x, x + h, y, y}, {x - h, x, y, y},
			{x, x + d, y, y + d}, {x - d, x, y - d/2, y + d/2}, {x - d/3, x + d, y - d, y + d/3},
		} {
			c, ok := bank.ClassifyRect(r[0], r[1], r[2], r[3])
			if l == nil || !(r[0] >= 0 && r[1] < 1 && r[2] >= 0 && r[3] < 1) {
				if ok {
					t.Fatalf("%s: rectangle %v answered %016b off the grid or without a LUT", name, r, c)
				}
				continue
			}
			if wc, wok := rectStairs(l, r); ok != wok || c != wc {
				t.Fatalf("%s: rectangle %v answered %016b (%v), its columns prove %016b (%v)", name, r, c, ok, wc, wok)
			}
			if !ok {
				continue
			}
			answers++
			for _, p := range rectProbes(r) {
				if want := bank.Classify(p[0], p[1]); want != c {
					t.Fatalf("%s: rectangle %v answered %016b, Classify at %v gives %016b", name, r, c, p, want)
				}
			}
		}
		for _, r := range [][4]float64{{x + h, x, y, y}, {x, x, y + h, y}, {x + d, x, y + d, y}} {
			if c, ok := bank.ClassifyRect(r[0], r[1], r[2], r[3]); ok {
				t.Fatalf("%s: reversed rectangle %v answered %016b", name, r, c)
			}
		}
	}
	return answers
}

// rectStairs is ClassifyRect's answer for a rectangle [r0, r1] × [r2, r3]
// on the grid, found without the envelope's end-column shortcut: a
// monitor is proven when every fine column the rectangle meets has all
// its rows below that column's lo, or all at or above its hi.
func rectStairs(l *zoneLUT, r [4]float64) (Code, bool) {
	i0, i1, j0, j1 := int(r[0]*lutFine), int(r[1]*lutFine), int(r[2]*lutFine), int(r[3]*lutFine)
	var c Code
	for mi := 0; l.all>>uint(mi) != 0; mi++ {
		below, above := true, true
		for _, s := range l.stairs[mi*lutFine+i0 : mi*lutFine+i1+1] {
			below = below && j1 < int(s&lutCodeBits)
			above = above && j0 >= int(s>>16)
		}
		switch {
		case below:
			c |= Code(l.bottom & (1 << uint(mi)))
		case above:
			c |= Code(^l.bottom & (1 << uint(mi)))
		default:
			return 0, false
		}
	}
	return c, true
}

// rectProbes returns the points of the rectangle [r0, r1] × [r2, r3] an
// answer is checked at: its corners, its edge midpoints and a 5×5 grid
// inside. A segment gets its ends and five points between, a point
// itself.
func rectProbes(r [4]float64) [][2]float64 {
	steps := func(lo, hi float64) []int {
		if lo == hi {
			return []int{3}
		}
		return []int{0, 1, 2, 3, 4, 5, 6}
	}
	at := func(lo, hi float64, k int) float64 {
		if k == 6 {
			return hi
		}
		return lo + (hi-lo)*float64(k)/6
	}
	var ps [][2]float64
	for _, i := range steps(r[0], r[1]) {
		for _, j := range steps(r[2], r[3]) {
			edge := i == 0 || i == 6 || j == 0 || j == 6
			if edge && (i%3 != 0 || j%3 != 0) {
				continue
			}
			ps = append(ps, [2]float64{at(r[0], r[1], i), at(r[2], r[3], j)})
		}
	}
	return ps
}

// TestClassifyBatchMatchesScalarRandom is the LUT certification property
// test: on random points — inside the grid, outside [0,1), and far out of
// range — ClassifyBatch and ClassifyLUT must equal per-point Classify bit
// for bit, on the paper's bank (20,000 points) and on the drive-pattern
// banks (5,000 each).
func TestClassifyBatchMatchesScalarRandom(t *testing.T) {
	src := rng.New(11)
	for bi, nb := range append([]namedBank{{"Table I", NewAnalyticTableI()}}, driveBanks()...) {
		n := 20000
		if bi > 0 {
			n = 5000
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			switch i % 4 {
			case 0, 1: // in-grid points, where the LUT answers
				xs[i] = src.Float64()
				ys[i] = src.Float64()
			case 2: // straddle the grid edges
				xs[i] = -0.1 + 1.2*src.Float64()
				ys[i] = -0.1 + 1.2*src.Float64()
			default: // far outside the observed square
				xs[i] = -2 + 4*src.Float64()
				ys[i] = -2 + 4*src.Float64()
			}
		}
		if matchClassify(t, nb.name, nb.bank, xs, ys) == 0 {
			t.Fatalf("%s: ClassifyRect answered no rectangle", nb.name)
		}
	}
}

// TestClassifyBatchBoundaryAndEdgePoints stresses the hard cases: points
// exactly on monitor boundaries (where the balance is ~0 and the cell
// must have been left uncertified), on the fine-cell edges (i/4096)
// around them, exactly on coarse and fine cell edges elsewhere, the
// corners of the grid, and non-finite coordinates.
func TestClassifyBatchBoundaryAndEdgePoints(t *testing.T) {
	for _, nb := range append([]namedBank{{"Table I", NewAnalyticTableI()}}, driveBanks()...) {
		var xs, ys []float64
		// Monitor-boundary points: bisected boundary crossings of every
		// curve, and the fine-cell edges left, right, below and above.
		for _, m := range nb.bank.Monitors() {
			a := m.(*Analytic)
			for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				if y, ok := a.BoundaryY(x, 0, 1); ok {
					fx, fy := math.Floor(x*lutFine)/lutFine, math.Floor(y*lutFine)/lutFine
					xs = append(xs, x, fx, fx+1.0/lutFine, x, x)
					ys = append(ys, y, y, y, fy, fy+1.0/lutFine)
				}
			}
		}
		// Coarse and fine cell edges (the former 256² edges among them)
		// and grid corners.
		for _, i := range []int{0, 1, 16, 31, 32, 33, 2032, 2047, 2048, 2049, 4064, 4080, 4095, 4096} {
			v := float64(i) / lutFine
			xs = append(xs, v, v, 0.5)
			ys = append(ys, v, 0.5, v)
		}
		// Exactly 1.0 (outside the half-open grid) and negative zero.
		xs = append(xs, 1.0, math.Copysign(0, -1))
		ys = append(ys, 1.0, 0.5)
		// NaN and ±Inf on either axis and on both: no cell holds them.
		nan, inf := math.NaN(), math.Inf(1)
		for _, v := range []float64{nan, inf, -inf} {
			xs = append(xs, v, 0.5, v)
			ys = append(ys, 0.5, v, v)
		}
		matchClassify(t, nb.name, nb.bank, xs, ys)
	}
}

// stubMonitor is a non-analytic monitor: banks containing one must skip
// the LUT and classify through the scalar path.
type stubMonitor struct{ cfg Config }

func (s stubMonitor) Bit(x, y float64) int {
	if x+y > 1 {
		return 1
	}
	return 0
}
func (s stubMonitor) Config() Config { return s.cfg }

func TestClassifyBatchFallsBackWithoutCertifiableBank(t *testing.T) {
	cfgs := TableI()
	bank := NewBank(MustAnalytic(cfgs[0]), stubMonitor{cfg: cfgs[1]})
	if enabled, _ := bank.BatchInfo(); enabled {
		t.Fatal("bank with a non-analytic monitor must not enable the LUT")
	}
	src := rng.New(3)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i], ys[i] = src.Float64(), src.Float64()
	}
	matchClassify(t, "fallback", bank, xs, ys)
}

// TestLUTEnabledForTableI pins that the paper's bank actually certifies:
// the batched engine's speedup relies on most cells answering by lookup.
func TestLUTEnabledForTableI(t *testing.T) {
	enabled, frac := NewAnalyticTableI().BatchInfo()
	if !enabled {
		t.Fatal("Table I bank must build a certified zone LUT")
	}
	if frac < 0.90 {
		t.Fatalf("certified fraction %.3f, want >= 0.90 (boundary cells only)", frac)
	}
}

// TestLUTMonotonePrecondition: a drive pattern mixing one axis across
// both branches breaks the per-axis monotonicity the certification rests
// on, so such a bank must refuse the LUT.
func TestLUTMonotonePrecondition(t *testing.T) {
	cfg := baseConfig("mixed")
	cfg.WidthsNm = [4]float64{1800, 1800, 1800, 1800}
	cfg.Inputs = [4]Input{X(), Y(), X(), Bias(0.5)} // X drives M1 (left) and M3 (right)
	bank := NewBank(MustAnalytic(cfg))
	if enabled, _ := bank.BatchInfo(); enabled {
		t.Fatal("mixed-branch drive must not certify")
	}
	// The scalar fallback still classifies correctly.
	src := rng.New(9)
	for i := 0; i < 200; i++ {
		x, y := src.Float64(), src.Float64()
		codes := make([]Code, 1)
		bank.ClassifyBatch([]float64{x}, []float64{y}, codes)
		if codes[0] != bank.Classify(x, y) {
			t.Fatalf("fallback mismatch at (%v, %v)", x, y)
		}
	}
}

// Allocation pins: the scalar classifier and the warmed batch,
// single-point and rectangle LUT classifiers must not allocate in steady state —
// campaign workers call them millions of times per trial batch.
func TestClassifyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	bank := NewAnalyticTableI()
	if a := testing.AllocsPerRun(1000, func() {
		bank.Classify(0.4, 0.6)
	}); a != 0 {
		t.Fatalf("Classify allocates %.1f per call, want 0", a)
	}
	src := rng.New(5)
	xs := make([]float64, 256)
	ys := make([]float64, 256)
	for i := range xs {
		xs[i], ys[i] = src.Float64(), src.Float64()
	}
	codes := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes) // build the LUT outside the measurement
	if a := testing.AllocsPerRun(200, func() {
		bank.ClassifyBatch(xs, ys, codes)
	}); a != 0 {
		t.Fatalf("warm ClassifyBatch allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		bank.ClassifyLUT(0.4, 0.6)
	}); a != 0 {
		t.Fatalf("warm ClassifyLUT allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		bank.ClassifyRect(0.4, 0.41, 0.6, 0.601)
	}); a != 0 {
		t.Fatalf("warm ClassifyRect allocates %.1f per call, want 0", a)
	}
}

func TestClassifyBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewAnalyticTableI().ClassifyBatch(make([]float64, 3), make([]float64, 3), make([]Code, 2))
}

// marginSign is signum with the certification margin: balances inside
// ±lutMarginA count as boundary (0) and prove nothing.
func marginSign(v float64) int8 {
	switch {
	case v > lutMarginA:
		return 1
	case v < -lutMarginA:
		return -1
	default:
		return 0
	}
}

// oracleCells is the coarse table by the direct four-corner rule: every
// corner balance comes from Analytic.Balance at the node coordinates
// (i/n, j/n), n = lutCells, and a monitor is proven in each cell whose
// four corners share a strict sign past the margin. Cells use the
// zoneLUT layout: code bits low, proven-monitor mask high.
func oracleCells(b *Bank) []uint32 {
	const n, m = lutCells, lutCells + 1
	cells := make([]uint32, n*n)
	bal := make([]float64, m*m)
	for mi, mon := range b.monitors {
		a := mon.(*Analytic)
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				bal[j*m+i] = a.Balance(float64(i)/float64(n), float64(j)/float64(n))
			}
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if s := cornerSign(bal[j*m+i], bal[j*m+i+1], bal[(j+1)*m+i], bal[(j+1)*m+i+1]); s != 0 {
					cells[j*n+i] |= 1 << uint(lutMaxMonitors+mi)
					if int(s) != a.refSign {
						cells[j*n+i] |= 1 << uint(mi)
					}
				}
			}
		}
	}
	return cells
}

// cornerSign is the margin sign four corner balances share, or 0 when
// they do not share a strict one.
func cornerSign(b0, b1, b2, b3 float64) int8 {
	s := marginSign(b0)
	if marginSign(b1) != s || marginSign(b2) != s || marginSign(b3) != s {
		return 0
	}
	return s
}

type namedBank struct {
	name string
	bank *Bank
}

// lutTestBanks are the banks the repository certifies a LUT for: the
// paper's, a Monte Carlo die, the bank at every foundry corner and at
// every default temperature of the drift campaigns (built the way the
// testbench builds them), the designed bank of the custom_monitor
// example, and the drive-pattern banks.
func lutTestBanks(t *testing.T) []namedBank {
	t.Helper()
	die := mos.Default65nmVariation().SampleDie(rng.New(17))
	banks := []namedBank{
		{"Table I", NewAnalyticTableI()},
		{"die", NewAnalyticTableI().Perturbed(die)},
	}
	shifted := func(shift func(mos.Params) mos.Params) *Bank {
		cfgs := TableI()
		ms := make([]Monitor, len(cfgs))
		for i, cfg := range cfgs {
			a := MustAnalytic(cfg)
			devs := a.Devices()
			for j := range devs {
				devs[j].P = shift(devs[j].P)
			}
			ms[i] = a.WithDevices(devs)
		}
		return NewBank(ms...)
	}
	for _, c := range mos.Corners() {
		banks = append(banks, namedBank{"corner " + c.String(),
			shifted(func(p mos.Params) mos.Params { return p.AtCorner(c) })})
	}
	for _, tk := range []float64{233, 273, 300, 323, 358, 398} {
		banks = append(banks, namedBank{fmt.Sprintf("%g K", tk),
			shifted(func(p mos.Params) mos.Params { return p.AtTemperature(tk) })})
	}
	banks = append(banks, namedBank{"custom_monitor", customMonitorBank(t)})
	return append(banks, driveBanks()...)
}

// drivePatterns are the drive orientations the LUT accepts beyond Table
// I's, where y always drives the left branch: y on the right, x or y
// alone on either branch, DC alone, two x inputs on one branch, and x
// and y on one branch or on opposite ones.
var drivePatterns = [][4]Input{
	{X(), Bias(0.3), Y(), Bias(0.3)},            // x left, y right
	{X(), Bias(0.3), Bias(0.5), Bias(0.3)},      // x only, left
	{Bias(0.3), Bias(0.5), X(), Bias(0.3)},      // x only, right
	{Bias(0.3), Y(), Bias(0.3), Bias(0.5)},      // y only, left
	{Bias(0.5), Bias(0.3), Bias(0.3), Y()},      // y only, right
	{Bias(0.45), Bias(0.3), Bias(0.5), Bias(0)}, // DC only
	{X(), X(), Bias(0.55), Bias(0.55)},          // two x inputs, left
	{Bias(0.4), Y(), X(), X()},                  // two x inputs, right
	{X(), Y(), Bias(0.45), Bias(0.45)},          // x and y, left
	{Bias(0.45), Bias(0.45), Y(), X()},          // x and y, right
	{Bias(0.2), X(), Y(), Bias(0.15)},           // x left, y right, crossed
}

// driveBanks holds every drive pattern at three width sets, one bank of
// eleven monitors per set.
func driveBanks() []namedBank {
	var banks []namedBank
	for _, w := range [][4]float64{{1800, 1800, 1800, 1800}, {3000, 600, 600, 3000}, {600, 3000, 3000, 600}} {
		ms := make([]Monitor, len(drivePatterns))
		for i, in := range drivePatterns {
			cfg := baseConfig(fmt.Sprintf("drive%d", i))
			cfg.WidthsNm, cfg.Inputs = w, in
			ms[i] = MustAnalytic(cfg)
		}
		banks = append(banks, namedBank{fmt.Sprintf("drives %v", w), NewBank(ms...)})
	}
	return banks
}

// customMonitorBank is the bank examples/custom_monitor designs: three
// DesignArc arcs, a DesignSegment segment, a FitArcBias arc and the
// Table I diagonal.
func customMonitorBank(t *testing.T) *Bank {
	t.Helper()
	base := TableI()[2]
	var cfgs []Config
	for _, p := range []float64{0.3, 0.42, 0.54} {
		cfg, err := DesignArc(p, 1800, base)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	seg, err := DesignSegment(0.45, 0.25, 3000, base)
	if err != nil {
		t.Fatal(err)
	}
	arc, err := FitArcBias(0.35, 0.62, 1800, base)
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, seg, arc, TableI()[5])
	ms := make([]Monitor, len(cfgs))
	for i, cfg := range cfgs {
		ms[i] = MustAnalytic(cfg)
	}
	return NewBank(ms...)
}

// onlyOnAMD64 skips the cell-for-cell pins elsewhere. They compare two
// floating-point computations of the same node balances; Go may fuse a
// multiply and an add into one FMA on some architectures, and may do so
// differently at the two call sites, while on amd64 it never fuses.
// Elsewhere the LUT's soundness rests on the margin alone, which the
// property tests cover.
func onlyOnAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("node balances are pinned bit for bit on amd64 only, not %s", runtime.GOARCH)
	}
}

// TestZoneLUTMatchesDirectOracle pins the staircase construction to the
// direct four-corner rule on every bank the repository certifies, cell
// for cell: the coarse table (code bits and proven bits) against
// oracleCells, and the staircases on every cell of every 7th fine
// column (every 63rd under -short; every 37th of those on the banks
// other than Table I) against the four-corner signs of Balance at that
// column's nodes.
func TestZoneLUTMatchesDirectOracle(t *testing.T) {
	onlyOnAMD64(t)
	stride := 7
	if testing.Short() {
		stride = 63
	}
	for bi, nb := range lutTestBanks(t) {
		l := nb.bank.lut()
		if l == nil {
			t.Fatalf("%s: bank declined the LUT", nb.name)
		}
		want := oracleCells(nb.bank)
		for idx, got := range l.cells {
			if got != want[idx] {
				t.Fatalf("%s: cell (x %d, y %d) code %016b proven %016b, oracle code %016b proven %016b",
					nb.name, idx%lutCells, idx/lutCells, got&lutCodeBits, got>>lutMaxMonitors,
					want[idx]&lutCodeBits, want[idx]>>lutMaxMonitors)
			}
		}
		step := stride
		if bi > 0 {
			step *= 37
		}
		left, right := make([]float64, lutFine+1), make([]float64, lutFine+1)
		for mi, mon := range nb.bank.monitors {
			a := mon.(*Analytic)
			for i := 0; i < lutFine; i += step {
				for j := range left {
					y := float64(j) / lutFine
					left[j], right[j] = a.Balance(float64(i)/lutFine, y), a.Balance(float64(i+1)/lutFine, y)
				}
				for j := 0; j < lutFine; j++ {
					s := cornerSign(left[j], right[j], left[j+1], right[j+1])
					bit, ok := l.prove(mi, i, i, j, j)
					if ok != (s != 0) || ok && (bit != 0) != (int(s) != a.refSign) {
						t.Fatalf("%s: monitor %d, fine cell (x %d, y %d): staircase proves %v (bit %v), corners share sign %d",
							nb.name, mi, i, j, ok, bit != 0, s)
					}
				}
			}
		}
	}
}

// Golden vector of the paper's bank: the SHA-256 of its coarse cells
// and of its staircases (little-endian uint32, in memory order), its
// certified fraction and the bytes its LUT keeps. A change to the
// construction, the margin, the grids or the layouts moves them.
const (
	lutGoldenCellsSHA256  = "eb313a8965298fd907157374c0db54d1ab35b2307c49397f9696e0532ea617f1"
	lutGoldenStairsSHA256 = "19ec6e885624b55a3a90c060b506f982cb89e0b6af45ac8bc0a607267344338b"
	lutGoldenFrac         = 0.93212890625 // 15272 of 16384 cells
	lutGoldenBytes        = 163840
)

func TestZoneLUTGolden(t *testing.T) {
	onlyOnAMD64(t)
	bank := NewAnalyticTableI()
	_, frac := bank.BatchInfo()
	l := bank.lut()
	digest := func(words []uint32) string {
		buf := make([]byte, 4*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
		sum := sha256.Sum256(buf)
		return hex.EncodeToString(sum[:])
	}
	if got := digest(l.cells); got != lutGoldenCellsSHA256 {
		t.Errorf("Table I coarse cells SHA-256 %s, want %s", got, lutGoldenCellsSHA256)
	}
	if got := digest(l.stairs); got != lutGoldenStairsSHA256 {
		t.Errorf("Table I staircases SHA-256 %s, want %s", got, lutGoldenStairsSHA256)
	}
	if frac != lutGoldenFrac {
		t.Errorf("Table I certified fraction %v, want %v", frac, lutGoldenFrac)
	}
	if got := 4 * (len(l.cells) + len(l.stairs)); got != lutGoldenBytes {
		t.Errorf("Table I LUT keeps %d bytes, want %d", got, lutGoldenBytes)
	}
}

// TestClassifyBatchPartlyProvenCells targets the per-monitor fallback:
// random points inside every coarse cell that leaves some monitor
// unproven, on every certified bank, must classify exactly as Classify
// does through the LUT entries, and every rectangle ClassifyRect
// answers there must match Classify. A boundary crosses each such cell,
// so the cell itself holds two codes wherever Classify finds two on a
// 9×9 grid of it, and then ClassifyRect must refuse the cell.
func TestClassifyBatchPartlyProvenCells(t *testing.T) {
	src := rng.New(29)
	const cell = 1.0 / lutCells
	for _, nb := range lutTestBanks(t) {
		l := nb.bank.lut()
		var xs, ys []float64
		split := 0
		for idx, c := range l.cells {
			if c>>lutMaxMonitors == l.all {
				continue
			}
			x0, y0 := float64(idx%lutCells)*cell, float64(idx/lutCells)*cell
			for k := 0; k < 2; k++ {
				xs = append(xs, x0+src.Float64()*cell)
				ys = append(ys, y0+src.Float64()*cell)
			}
			x1, y1 := math.Nextafter(x0+cell, 0), math.Nextafter(y0+cell, 0)
			first := nb.bank.Classify(x0, y0)
			for _, p := range rectProbes([4]float64{x0, x1, y0, y1}) {
				if nb.bank.Classify(p[0], p[1]) != first {
					split++
					if c, ok := nb.bank.ClassifyRect(x0, x1, y0, y1); ok {
						t.Fatalf("%s: cell %d holds codes %016b and %016b, ClassifyRect answered %016b",
							nb.name, idx, first, nb.bank.Classify(p[0], p[1]), c)
					}
					break
				}
			}
		}
		if len(xs) == 0 || split == 0 {
			t.Fatalf("%s: %d partly proven cells, %d of them holding two codes", nb.name, len(xs)/2, split)
		}
		matchClassify(t, nb.name, nb.bank, xs, ys)
	}
}

// TestZoneLUTStaircasesMonotone: every staircase the LUT builds keeps
// lo ≤ hi, and both fall along its boundary's declared direction
// (lutDrive), on every bank the repository certifies. ClassifyRect's
// end-column rule is sound only on such staircases.
func TestZoneLUTStaircasesMonotone(t *testing.T) {
	for _, nb := range lutTestBanks(t) {
		l := nb.bank.lut()
		for mi, mon := range nb.bank.monitors {
			_, down := mon.(*Analytic).lutDrive()
			st := l.stairs[mi*lutFine : (mi+1)*lutFine]
			for i, s := range st {
				if s&lutCodeBits > s>>16 {
					t.Fatalf("%s: monitor %d, column %d: lo %d above hi %d", nb.name, mi, i, s&lutCodeBits, s>>16)
				}
				if i == 0 {
					continue
				}
				a, b := st[i-1], s
				if !down {
					a, b = b, a
				}
				if b&lutCodeBits > a&lutCodeBits || b>>16 > a>>16 {
					t.Fatalf("%s: monitor %d (down %v): columns %d and %d hold %d/%d and %d/%d",
						nb.name, mi, down, i-1, i, st[i-1]&lutCodeBits, st[i-1]>>16, s&lutCodeBits, s>>16)
				}
			}
		}
	}
}

// TestStaircaseProvesOnlyDominatedCells runs the staircase build on
// synthetic node balances whose boundary wanders: whole columns drop or
// rise against the declared direction, nodes near the boundary flip to
// the margin, to the other side or to NaN. A cell may be proven only
// when each of its four corners is verified (its balance clears the
// margin on that side) or dominated: below a verified bottom node, or
// above a verified top node, of its column. The rule is checked cell by
// cell and, through the end-column rule of zoneLUT.prove, on random
// boxes; the build must still prove most of what the oracle proves.
func TestStaircaseProvesOnlyDominatedCells(t *testing.T) {
	const n = lutFine
	hash := func(k, j int) uint64 {
		h := uint64(k)*0x9e3779b97f4a7c15 ^ uint64(j)*0xc2b2ae3d27d4eb4f
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		return h ^ h>>32
	}
	src := rng.New(53)
	for _, bottom := range []float64{-1, 1} {
		for _, down := range []bool{true, false} {
			// The boundary sits at row edge(k), moving along its direction,
			// with a margin band of 0–3 rows above it.
			edge := func(k int) int {
				e := 3000 - k/2
				if !down {
					e = 1000 + k/2
				}
				switch k % 331 {
				case 0, 1, 2:
					e -= 30
				case 100:
					e += 30
				}
				return e
			}
			bal := func(k, j int) float64 {
				e := edge(k)
				v := 1e-9
				switch {
				case j < e:
					v *= bottom
				case j < e+int(hash(k, -1)%4):
					v = 0
				default:
					v *= -bottom
				}
				if j > e-60 && j < e+60 {
					switch hash(k, j) % 41 {
					case 0:
						v = 0
					case 1:
						v = -v
					case 2:
						v = math.NaN()
					}
				}
				return v
			}
			st := make([]uint32, n)
			staircase(st, make([]int32, n), make([]int32, n), bal, bottom, down)
			// mb[k] is column k's highest verified bottom node (−1 if none),
			// mt[k] its lowest verified top node (n+1 if none).
			mb, mt := make([]int, n+1), make([]int, n+1)
			for k := range mb {
				mb[k], mt[k] = -1, n+1
				for j := 0; j <= n; j++ {
					v := bal(k, j)
					if bottom*v > lutMarginA {
						mb[k] = j
					}
					if -bottom*v > lutMarginA && mt[k] == n+1 {
						mt[k] = j
					}
				}
			}
			name := fmt.Sprintf("bottom %v, down %v", bottom, down)
			proven, oracle := 0, 0
			for i, s := range st {
				blo, thi := min(mb[i], mb[i+1]), max(mt[i], mt[i+1])
				lo, hi := int(s&lutCodeBits), int(s>>16)
				if lo > max(blo, 0) || hi < thi {
					t.Fatalf("%s: column %d proves rows below %d and from %d, the oracle below %d and from %d", name, i, lo, hi, blo, thi)
				}
				proven += lo + n - min(hi, n)
				oracle += max(blo, 0) + n - min(thi, n)
			}
			t.Logf("%s: staircase proves %d cells, the oracle %d", name, proven, oracle)
			if proven < oracle*95/100 {
				t.Fatalf("%s: staircase proves %d cells, the oracle %d", name, proven, oracle)
			}
			l := &zoneLUT{all: 1, stairs: st}
			if bottom > 0 {
				l.bottom = 1
			}
			answered := 0
			for b := 0; b < 20000; b++ {
				i0 := int(src.Float64() * n)
				i1 := min(i0+int(src.Float64()*200), n-1)
				j0 := max(edge(i0)-100+int(src.Float64()*200), 0)
				j1 := min(j0+int(src.Float64()*40), n-1)
				bit, ok := l.prove(0, i0, i1, j0, j1)
				if !ok {
					continue
				}
				answered++
				for i := i0; i <= i1; i++ {
					if (bit == l.bottom && j1 >= min(mb[i], mb[i+1])) || (bit != l.bottom && j0 < max(mt[i], mt[i+1])) {
						t.Fatalf("%s: box [%d, %d] × [%d, %d] proven %d, but column %d proves rows below %d and from %d",
							name, i0, i1, j0, j1, bit, i, min(mb[i], mb[i+1]), max(mt[i], mt[i+1]))
					}
				}
			}
			t.Logf("%s: %d of 20000 boxes proven", name, answered)
			if answered == 0 {
				t.Fatalf("%s: no box proven", name)
			}
		}
	}
}

// FuzzZoneLUTConfig builds one-monitor banks from fuzzed widths, biases
// and drive pattern (kept only when lutMonotone accepts the pattern):
// ClassifyLUT must match Classify at a fuzzed point, and a fuzzed box
// that ClassifyRect answers must match Classify at its corners and at
// the point, clamped into it.
func FuzzZoneLUTConfig(f *testing.F) {
	for i, in := range drivePatterns {
		var pat uint8
		for k := 3; k >= 0; k-- {
			pat = pat*3 + uint8(in[k].Kind)
		}
		f.Add(pat, 1800.0, 3000.0, 600.0, 1800.0, 0.3, 0.5, 0.45, 0.2, 0.1+0.07*float64(i), 0.6, 0.05, 0.2)
	}
	for _, cfg := range TableI() {
		var pat uint8
		for k := 3; k >= 0; k-- {
			pat = pat*3 + uint8(cfg.Inputs[k].Kind)
		}
		w, in := cfg.WidthsNm, cfg.Inputs
		f.Add(pat, w[0], w[1], w[2], w[3], in[0].DC, in[1].DC, in[2].DC, in[3].DC, 0.41, 0.37, 0.1, 0.1)
	}
	f.Fuzz(func(t *testing.T, pat uint8, w0, w1, w2, w3, b0, b1, b2, b3, x, y, dx, dy float64) {
		unit := func(v float64) float64 {
			if v = math.Abs(math.Mod(v, 1)); math.IsNaN(v) {
				return 0.5
			}
			return v
		}
		cfg := baseConfig("fuzz")
		for k, w := range []float64{w0, w1, w2, w3} {
			cfg.WidthsNm[k] = 200 + 4800*unit(w/5000)
		}
		for k, b := range []float64{b0, b1, b2, b3} {
			cfg.Inputs[k] = Input{Kind: InputKind(int(pat%81) / []int{1, 3, 9, 27}[k] % 3), DC: 1.2 * unit(b)}
		}
		a := MustAnalytic(cfg)
		if !a.lutMonotone() {
			return
		}
		bank := NewBank(a)
		if got, want := bank.ClassifyLUT(x, y), bank.Classify(x, y); got != want {
			t.Fatalf("%v at (%v, %v): ClassifyLUT %b, Classify %b", cfg.Inputs, x, y, got, want)
		}
		xlo, ylo := unit(x), unit(y)
		xhi, yhi := min(xlo+0.1*unit(dx), math.Nextafter(1, 0)), min(ylo+0.1*unit(dy), math.Nextafter(1, 0))
		c, ok := bank.ClassifyRect(xlo, xhi, ylo, yhi)
		if !ok {
			return
		}
		px, py := xlo+(xhi-xlo)*unit(x*7), ylo+(yhi-ylo)*unit(y*7)
		for _, p := range [][2]float64{{xlo, ylo}, {xlo, yhi}, {xhi, ylo}, {xhi, yhi}, {min(px, xhi), min(py, yhi)}} {
			if want := bank.Classify(p[0], p[1]); want != c {
				t.Fatalf("%v: [%v, %v] × [%v, %v] answered %b, Classify at %v gives %b", cfg.Inputs, xlo, xhi, ylo, yhi, c, p, want)
			}
		}
	})
}

// FuzzClassifyRect: ProveRect over a fuzzed monitor mask leaves open
// only monitors of the mask and proves bits only for the others; a
// rectangle on which it settles any monitor must lie on the grid and be
// ordered, and Classify must give each settled monitor's bit at its
// corners and at a point of it that the fuzzer picks: the fractions u
// and v of the way across. ClassifyRect answers exactly when ProveRect
// over every monitor leaves none open, and then with the code Classify
// gives at those points.
func FuzzClassifyRect(f *testing.F) {
	for _, s := range []struct {
		r    [6]float64
		want uint32
	}{
		{[6]float64{0.3, 0.3, 0.2, 0.2, 0.5, 0.5}, 0x3f},            // one point
		{[6]float64{0.1, 0.12, 0.05, 0.06, 0.3, 0.9}, 0x3f},         // a box in one zone
		{[6]float64{0.4, 0.6, 0.4, 0.6, 0.5, 0.5}, 0x3f},            // a box across boundaries
		{[6]float64{0.2, 0.2, 0.1, 0.5, 0, 0.7}, 0x15},              // a tall segment
		{[6]float64{0.5, 0.4, 0.2, 0.3, 0, 1}, 0x3f},                // reversed
		{[6]float64{0, 0.999, 0, 0.999, 0.25, 0.75}, 0x3f},          // the whole grid
		{[6]float64{math.NaN(), 0.5, 0.2, 0.3, 0, 0}, 0x3f},         // NaN
		{[6]float64{0.1, math.Inf(1), 0.2, 0.3, 0.5, 0.5}, 0x3f},    // infinite
		{[6]float64{-0.01, 0.1, 0.9, 1.01, 0.5, 0.5}, 0x3f},         // off the grid
		{[6]float64{1.0 / 256, 2.0 / 256, 0.5, 0.5, 1, 0.25}, 0x3f}, // on cell edges
		{[6]float64{0.4, 0.6, 0.4, 0.6, 0.5, 0.5}, 0x0a},            // part of the bank
		{[6]float64{0.4, 0.6, 0.4, 0.6, 0.5, 0.5}, 0xffffffc0},      // past the bank only
		{[6]float64{0.1, 0.12, 0.05, 0.06, 0.3, 0.9}, 0},            // no monitor
	} {
		f.Add(s.r[0], s.r[1], s.r[2], s.r[3], s.r[4], s.r[5], s.want)
	}
	bank := NewAnalyticTableI()
	all := uint32(1)<<uint(bank.Size()) - 1
	frac := func(u float64) float64 {
		if u = math.Abs(math.Mod(u, 1)); math.IsNaN(u) {
			return 0.5
		}
		return u
	}
	f.Fuzz(func(t *testing.T, xlo, xhi, ylo, yhi, u, v float64, want uint32) {
		proven, open := bank.ProveRect(xlo, xhi, ylo, yhi, want)
		settled := want & all &^ open
		if open&^(want&all) != 0 || uint32(proven)&^settled != 0 {
			t.Fatalf("[%v, %v] × [%v, %v], mask %b: proved %b, left %b open", xlo, xhi, ylo, yhi, want, proven, open)
		}
		c, ok := bank.ClassifyRect(xlo, xhi, ylo, yhi)
		if _, openAll := bank.ProveRect(xlo, xhi, ylo, yhi, all); ok != (openAll == 0) || ok && open != 0 {
			t.Fatalf("[%v, %v] × [%v, %v]: ClassifyRect %v, ProveRect leaves %b of every monitor and %b of mask %b open",
				xlo, xhi, ylo, yhi, ok, openAll, open, want)
		}
		if settled == 0 && !ok {
			return
		}
		if !(xlo >= 0 && xlo <= xhi && xhi < 1 && ylo >= 0 && ylo <= yhi && yhi < 1) {
			t.Fatalf("settled %b (ClassifyRect %v) for [%v, %v] × [%v, %v]", settled, ok, xlo, xhi, ylo, yhi)
		}
		px := min(max(xlo+(xhi-xlo)*frac(u), xlo), xhi)
		py := min(max(ylo+(yhi-ylo)*frac(v), ylo), yhi)
		for _, p := range [][2]float64{{xlo, ylo}, {xlo, yhi}, {xhi, ylo}, {xhi, yhi}, {px, py}} {
			want := bank.Classify(p[0], p[1])
			if ok && want != c {
				t.Fatalf("[%v, %v] × [%v, %v] answered %016b, Classify at %v gives %016b", xlo, xhi, ylo, yhi, c, p, want)
			}
			if d := uint32(want^proven) & settled; d != 0 {
				t.Fatalf("[%v, %v] × [%v, %v] proved %016b over %016b, Classify at %v gives %016b", xlo, xhi, ylo, yhi, proven, settled, p, want)
			}
		}
	})
}

// TestZoneLUTBankSizeBound: a cell has 16 code bits, so a 16-monitor
// bank still certifies and one monitor more declines the LUT; both
// classify bit-identically to Classify through both LUT entries.
func TestZoneLUTBankSizeBound(t *testing.T) {
	cfgs := TableI()
	bankOf := func(n int) *Bank {
		ms := make([]Monitor, n)
		for i := range ms {
			ms[i] = MustAnalytic(cfgs[i%len(cfgs)])
		}
		return NewBank(ms...)
	}
	src := rng.New(31)
	xs := make([]float64, 4000)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = -0.1 + 1.2*src.Float64()
		ys[i] = -0.1 + 1.2*src.Float64()
	}
	for _, n := range []int{lutMaxMonitors, lutMaxMonitors + 1} {
		bank := bankOf(n)
		if enabled, _ := bank.BatchInfo(); enabled != (n <= lutMaxMonitors) {
			t.Fatalf("%d-monitor bank: LUT enabled %v", n, enabled)
		}
		matchClassify(t, fmt.Sprintf("%d-monitor bank", n), bank, xs, ys)
	}
}
