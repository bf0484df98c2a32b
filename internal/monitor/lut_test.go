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
// (x, y): the point itself, vertical and horizontal segments from 1/9 of
// a cell to 4.4 cells long, and boxes from 1/4 to 3 cells a side. On the grid
// it must answer exactly when every cell the rectangle meets holds the
// same fully proven entry (rectCells), and Classify must give the answer
// at the rectangle's corners, its edge midpoints and a 5×5 interior
// grid. It must refuse a rectangle off the [0,1)² grid (NaN and ±Inf
// included), a reversed one, and every rectangle of a bank without a
// LUT. It returns how many rectangles it answered.
func matchRect(t *testing.T, name string, bank *Bank, xs, ys []float64) (answers int) {
	t.Helper()
	const cell = 1.0 / lutCells
	l := bank.lut()
	for i, x := range xs {
		y := ys[i]
		h := cell * float64(1+i%8) / 9
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
			if wc, wok := rectCells(l, r); ok != wok || c != wc {
				t.Fatalf("%s: rectangle %v answered %016b (%v), its cells prove %016b (%v)", name, r, c, ok, wc, wok)
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

// rectCells is ClassifyRect's answer read off the cell array for a
// rectangle [r0, r1] × [r2, r3] on the grid: the code of the entry every
// cell it meets holds, when that entry proves every monitor.
func rectCells(l *zoneLUT, r [4]float64) (Code, bool) {
	i0, i1, j0, j1 := int(r[0]*lutCells), int(r[1]*lutCells), int(r[2]*lutCells), int(r[3]*lutCells)
	c := l.cells[j0*lutCells+i0]
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			if l.cells[j*lutCells+i] != c {
				return 0, false
			}
		}
	}
	if c>>lutMaxMonitors != l.all {
		return 0, false
	}
	return Code(c & lutCodeBits), true
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
// for bit.
func TestClassifyBatchMatchesScalarRandom(t *testing.T) {
	src := rng.New(11)
	const n = 20000
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
	if matchClassify(t, "Table I", NewAnalyticTableI(), xs, ys) == 0 {
		t.Fatal("ClassifyRect answered no rectangle")
	}
}

// TestClassifyBatchBoundaryAndEdgePoints stresses the hard cases: points
// exactly on monitor boundaries (where the balance is ~0 and the cell
// must have been left uncertified), exactly on LUT cell edges (i/256),
// the corners of the grid, and non-finite coordinates.
func TestClassifyBatchBoundaryAndEdgePoints(t *testing.T) {
	bank := NewAnalyticTableI()
	var xs, ys []float64
	// Monitor-boundary points: bisected boundary crossings of every curve.
	for _, m := range bank.Monitors() {
		a := m.(*Analytic)
		for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			if y, ok := a.BoundaryY(x, 0, 1); ok {
				xs = append(xs, x)
				ys = append(ys, y)
			}
		}
	}
	// Cell-edge and grid-corner points.
	for _, i := range []int{0, 1, 127, 128, 255, 256} {
		v := float64(i) / 256
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
	matchClassify(t, "Table I", bank, xs, ys)
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

// oracleCells is the direct LUT construction the separable build
// replaces: every corner balance comes from Analytic.Balance at the node
// coordinates (i/n, j/n), and a monitor is proven in each cell whose four
// corners share a strict sign past the margin. Cells use the zoneLUT
// layout: code bits low, proven-monitor mask high.
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
				s := marginSign(bal[j*m+i])
				if s == 0 || marginSign(bal[j*m+i+1]) != s ||
					marginSign(bal[(j+1)*m+i]) != s || marginSign(bal[(j+1)*m+i+1]) != s {
					continue
				}
				cells[j*n+i] |= 1 << uint(lutMaxMonitors+mi)
				if int(s) != a.refSign {
					cells[j*n+i] |= 1 << uint(mi)
				}
			}
		}
	}
	return cells
}

type namedBank struct {
	name string
	bank *Bank
}

// lutTestBanks are the banks the repository certifies a LUT for: the
// paper's, a Monte Carlo die, the bank at every foundry corner and at
// every default temperature of the drift campaigns (built the way the
// testbench builds them), and the designed bank of the custom_monitor
// example.
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
	return append(banks, namedBank{"custom_monitor", customMonitorBank(t)})
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

// TestZoneLUTMatchesDirectOracle pins the separable construction to the
// direct one, cell for cell — code bits and proven bits — on every bank
// the repository certifies.
func TestZoneLUTMatchesDirectOracle(t *testing.T) {
	onlyOnAMD64(t)
	for _, nb := range lutTestBanks(t) {
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
	}
}

// Golden vector of the paper's bank: the SHA-256 of its cell array
// (little-endian uint32, row-major) and its certified fraction. A change
// to the construction, the margin, the grid or the cell layout moves
// them.
const (
	lutGoldenSHA256 = "59edbeef7fdf6648d13c6e912ebc7b84408b8ae9ea0975c0f70fd13b1488f0ec"
	lutGoldenFrac   = 0.965545654296875 // 63278 of 65536 cells
)

func TestZoneLUTGolden(t *testing.T) {
	onlyOnAMD64(t)
	bank := NewAnalyticTableI()
	_, frac := bank.BatchInfo()
	cells := bank.lut().cells
	buf := make([]byte, 4*len(cells))
	for i, c := range cells {
		binary.LittleEndian.PutUint32(buf[4*i:], c)
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != lutGoldenSHA256 {
		t.Errorf("Table I cell array SHA-256 %s, want %s", got, lutGoldenSHA256)
	}
	if frac != lutGoldenFrac {
		t.Errorf("Table I certified fraction %v, want %v", frac, lutGoldenFrac)
	}
}

// TestClassifyBatchPartlyProvenCells targets the per-monitor fallback:
// random points inside every cell that leaves some monitor unproven, on
// every certified bank, must classify exactly as Classify does through
// the LUT entries, and ClassifyRect must refuse every rectangle.
func TestClassifyBatchPartlyProvenCells(t *testing.T) {
	src := rng.New(29)
	for _, nb := range lutTestBanks(t) {
		l := nb.bank.lut()
		var xs, ys []float64
		for idx, c := range l.cells {
			if c>>lutMaxMonitors == l.all {
				continue
			}
			for k := 0; k < 2; k++ {
				xs = append(xs, (float64(idx%lutCells)+src.Float64())/lutCells)
				ys = append(ys, (float64(idx/lutCells)+src.Float64())/lutCells)
			}
		}
		if len(xs) == 0 {
			t.Fatalf("%s: no partly proven cell", nb.name)
		}
		// Every rectangle holds its point, so it meets a partly proven cell.
		if n := matchClassify(t, nb.name, nb.bank, xs, ys); n != 0 {
			t.Fatalf("%s: ClassifyRect answered %d rectangles through partly proven cells", nb.name, n)
		}
	}
}

// TestClassifyRectReadsEveryCell: ClassifyRect must read every cell a
// rectangle meets, not only the cells at its corners. On a certified
// bank the corner cells never agree around a cell that proves less,
// because every balance is monotone in x and in y, so the test unproves
// one monitor in a cell deep inside a fully proven zone. That LUT is
// still sound, only less proven: ClassifyBatch evaluates the monitor
// there. Every rectangle through the cell must be refused.
func TestClassifyRectReadsEveryCell(t *testing.T) {
	bank := NewAnalyticTableI()
	l := bank.lut()
	const cell = 1.0 / lutCells
	same := func(i, j int) bool {
		c := l.cells[j*lutCells+i]
		for dj := -2; dj <= 2; dj++ {
			for di := -2; di <= 2; di++ {
				if l.cells[(j+dj)*lutCells+i+di] != c {
					return false
				}
			}
		}
		return c>>lutMaxMonitors == l.all
	}
	i, j := 2, 64
	for ; i < lutCells-2 && !same(i, j); i++ {
	}
	if i == lutCells-2 {
		t.Fatal("no fully proven 5×5 block of cells on row 64")
	}
	l.cells[j*lutCells+i] &^= 1 << lutMaxMonitors // leave monitor 0 open
	x, y := (float64(i)+0.5)*cell, (float64(j)+0.5)*cell
	for _, r := range [][4]float64{
		{x - cell, x + cell, y - cell, y + cell},
		{x - 2*cell, x + cell, y - cell/2, y + 2*cell},
		{x, x, y - cell, y + cell},
		{x - cell, x + cell, y, y},
	} {
		if c, ok := bank.ClassifyRect(r[0], r[1], r[2], r[3]); ok {
			t.Fatalf("rectangle %v around the unproven cell (%d, %d) answered %016b", r, i, j, c)
		}
	}
	src := rng.New(37)
	xs, ys := make([]float64, 200), make([]float64, 200)
	for k := range xs {
		xs[k], ys[k] = x+4*cell*(src.Float64()-0.5), y+4*cell*(src.Float64()-0.5)
	}
	matchClassify(t, "unproven cell", bank, xs, ys)
}

// FuzzClassifyRect: a rectangle ClassifyRect answers must lie on the
// grid and be ordered, and Classify must give the answer at its corners
// and at a point of it that the fuzzer picks: the fractions u and v of
// the way across.
func FuzzClassifyRect(f *testing.F) {
	for _, s := range [][6]float64{
		{0.3, 0.3, 0.2, 0.2, 0.5, 0.5},            // one point
		{0.1, 0.12, 0.05, 0.06, 0.3, 0.9},         // a box in one zone
		{0.4, 0.6, 0.4, 0.6, 0.5, 0.5},            // a box across boundaries
		{0.2, 0.2, 0.1, 0.5, 0, 0.7},              // a tall segment
		{0.5, 0.4, 0.2, 0.3, 0, 1},                // reversed
		{0, 0.999, 0, 0.999, 0.25, 0.75},          // the whole grid
		{math.NaN(), 0.5, 0.2, 0.3, 0, 0},         // NaN
		{0.1, math.Inf(1), 0.2, 0.3, 0.5, 0.5},    // infinite
		{-0.01, 0.1, 0.9, 1.01, 0.5, 0.5},         // off the grid
		{1.0 / 256, 2.0 / 256, 0.5, 0.5, 1, 0.25}, // on cell edges
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	bank := NewAnalyticTableI()
	frac := func(u float64) float64 {
		if u = math.Abs(math.Mod(u, 1)); math.IsNaN(u) {
			return 0.5
		}
		return u
	}
	f.Fuzz(func(t *testing.T, xlo, xhi, ylo, yhi, u, v float64) {
		c, ok := bank.ClassifyRect(xlo, xhi, ylo, yhi)
		if !ok {
			return
		}
		if !(xlo >= 0 && xlo <= xhi && xhi < 1 && ylo >= 0 && ylo <= yhi && yhi < 1) {
			t.Fatalf("answered %016b for [%v, %v] × [%v, %v]", c, xlo, xhi, ylo, yhi)
		}
		px := min(max(xlo+(xhi-xlo)*frac(u), xlo), xhi)
		py := min(max(ylo+(yhi-ylo)*frac(v), ylo), yhi)
		for _, p := range [][2]float64{{xlo, ylo}, {xlo, yhi}, {xhi, ylo}, {xhi, yhi}, {px, py}} {
			if want := bank.Classify(p[0], p[1]); want != c {
				t.Fatalf("[%v, %v] × [%v, %v] answered %016b, Classify at %v gives %016b", xlo, xhi, ylo, yhi, c, p, want)
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
