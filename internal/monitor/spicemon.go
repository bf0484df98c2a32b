package monitor

import (
	"fmt"

	"repro/internal/mos"
	"repro/internal/spice"
)

// Spice is the transistor-level model of the Fig. 2 monitor. Each Bit
// evaluation builds the input bias, solves the nonlinear DC operating
// point of the full eight-transistor circuit, and compares the two output
// nodes — exactly what the fabricated monitor's high-gain output stage
// does. It is orders of magnitude slower than Analytic and exists to
// validate it and to regenerate the "experimental" curves of Fig. 4.
type Spice struct {
	cfg     Config
	ckt     *spice.Circuit
	vx      [4]*spice.VSource
	refBit  int
	prevSol *spice.Solution
	// ws keeps the MNA matrix, RHS and LU buffers alive between Bit
	// evaluations — a boundary trace solves the same circuit thousands
	// of times, and without reuse every solve re-allocates the solver.
	ws *spice.Workspace
}

// NewSpice builds the transistor-level monitor core. Optionally,
// perturbed input devices (Monte Carlo) can be supplied; pass nil for
// nominal.
func NewSpice(cfg Config, devs *[4]mos.Device) (*Spice, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Spice{cfg: cfg, ws: spice.NewWorkspace()}
	m.ckt = spice.New()
	c := m.ckt
	vdd := c.Node("vdd")
	out1 := c.Node("out1")
	out2 := c.Node("out2")
	c.Add(spice.NewVSource("VDD", vdd, spice.Ground, cfg.VDD))

	inputDevs := cfg.Devices()
	if devs != nil {
		inputDevs = *devs
	}
	// Input gates driven by dedicated sources so Bit can rebias quickly.
	drains := [4]spice.NodeID{out1, out1, out2, out2}
	for i := 0; i < 4; i++ {
		g := c.Node(fmt.Sprintf("g%d", i+1))
		m.vx[i] = spice.NewVSource(fmt.Sprintf("V%d", i+1), g, spice.Ground, 0)
		c.Add(m.vx[i])
		c.Add(spice.NewMOSFET(fmt.Sprintf("M%d", i+1), drains[i], g, spice.Ground, inputDevs[i]))
	}
	// Loads: M5/M8 diode-connected, M6/M7 cross-coupled feedback
	// ("equal sized transistors M5 and M8 are used as active loads, while
	// equal sized transistors M6 and M7 perform the required feedback to
	// improve the gain of the stage"). The feedback pair is drawn at 80%
	// of the diode pair so the positive-feedback loop gain stays below
	// one: the stage gets the published gain boost without turning into a
	// bistable latch, which would add hysteresis to the zone boundary.
	load := func(name string, wNm float64) mos.Device {
		return mos.NewDevice(name, wNm, cfg.LengthNm, cfg.PMOS)
	}
	c.Add(spice.NewMOSFET("M5", out1, out1, vdd, load("M5", cfg.LoadWNm)))
	c.Add(spice.NewMOSFET("M6", out1, out2, vdd, load("M6", 0.8*cfg.LoadWNm)))
	c.Add(spice.NewMOSFET("M7", out2, out1, vdd, load("M7", 0.8*cfg.LoadWNm)))
	c.Add(spice.NewMOSFET("M8", out2, out2, vdd, load("M8", cfg.LoadWNm)))

	ref, err := m.rawBit(cfg.RefX, cfg.RefY)
	if err != nil {
		return nil, fmt.Errorf("monitor %s: reference solve: %w", cfg.Name, err)
	}
	m.refBit = ref
	return m, nil
}

// rawBit solves the DC point at (x, y) and returns 1 when out2 > out1
// (right branch starved, left branch sinking more current).
func (m *Spice) rawBit(x, y float64) (int, error) {
	for i := 0; i < 4; i++ {
		m.vx[i].SetDC(m.cfg.Inputs[i].Voltage(x, y))
	}
	sol, err := spice.DCOperatingPointWS(m.ckt, m.prevSol, m.ws)
	if err != nil {
		return 0, err
	}
	m.prevSol = sol
	v1, _ := sol.Voltage("out1")
	v2, _ := sol.Voltage("out2")
	if v2 > v1 {
		return 1, nil
	}
	return 0, nil
}

// Bit implements Monitor. Convergence failures are not expected for this
// topology; if one occurs the reference side is returned (fail-safe "0")
// and BitErr can be used instead when the caller wants the error.
func (m *Spice) Bit(x, y float64) int {
	b, err := m.BitErr(x, y)
	if err != nil {
		return 0
	}
	return b
}

// BitErr is Bit with explicit error reporting.
func (m *Spice) BitErr(x, y float64) (int, error) {
	raw, err := m.rawBit(x, y)
	if err != nil {
		return 0, err
	}
	if raw == m.refBit {
		return 0, nil
	}
	return 1, nil
}

// Config implements Monitor.
func (m *Spice) Config() Config { return m.cfg }

// OutputVoltages solves the DC point and returns (out1, out2), exposing
// the analog comparison the output stage digitizes.
func (m *Spice) OutputVoltages(x, y float64) (v1, v2 float64, err error) {
	for i := 0; i < 4; i++ {
		m.vx[i].SetDC(m.cfg.Inputs[i].Voltage(x, y))
	}
	sol, err := spice.DCOperatingPointWS(m.ckt, m.prevSol, m.ws)
	if err != nil {
		return 0, 0, err
	}
	m.prevSol = sol
	v1, _ = sol.Voltage("out1")
	v2, _ = sol.Voltage("out2")
	return v1, v2, nil
}

// BoundaryY locates the bit transition along the y direction at fixed x
// by binary search; ok is false when no transition exists in [yLo, yHi].
func (m *Spice) BoundaryY(x, yLo, yHi float64) (float64, bool) {
	return m.boundary(func(v float64) (int, error) { return m.BitErr(x, v) }, yLo, yHi)
}

// BoundaryX locates the bit transition along the x direction at fixed y —
// needed for near-vertical curve segments (Table I row 2).
func (m *Spice) BoundaryX(y, xLo, xHi float64) (float64, bool) {
	return m.boundary(func(v float64) (int, error) { return m.BitErr(v, y) }, xLo, xHi)
}

func (m *Spice) boundary(bit func(float64) (int, error), lo, hi float64) (float64, bool) {
	bLo, err := bit(lo)
	if err != nil {
		return 0, false
	}
	bHi, err := bit(hi)
	if err != nil || bLo == bHi {
		return 0, false
	}
	for i := 0; i < 30; i++ {
		mid := 0.5 * (lo + hi)
		bm, err := bit(mid)
		if err != nil {
			return 0, false
		}
		if bm == bLo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), true
}
