// Package mos implements the MOSFET behavioural model that generates the
// monitor's nonlinear zone boundaries.
//
// The paper's monitor exploits the quasi-quadratic I_D(V_GS) law of nMOS
// devices in saturation, including the subthreshold tail (Section III.B:
// "Boundary curves become a straight line for input voltages below the
// threshold voltage because the input transistors do not deliver current").
// We model this with an EKV-style smooth interpolation: the effective
// overdrive
//
//	v_eff = 2·n·V_T · ln(1 + exp((V_GS − V_TH)/(2·n·V_T)))
//
// tends to (V_GS − V_TH) far above threshold and to an exponential far
// below it, giving a single continuous expression with continuous
// derivatives — exactly what a Newton-Raphson circuit solver wants.
// Triode/saturation use the level-1 square law with channel-length
// modulation, continuous at the triode/saturation corner.
//
// Process variability follows the standard two-component picture used for
// foundry Monte Carlo: a global (per-die) corner shift shared by all
// devices plus local Pelgrom mismatch with σ(ΔV_TH) = A_VT/√(W·L).
package mos

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// VThermal is the thermal voltage kT/q at 300 K, in volts.
const VThermal = 0.02585

// Kind distinguishes n-channel from p-channel devices.
type Kind int

// Device polarities.
const (
	NMOS Kind = iota
	PMOS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == PMOS {
		return "pmos"
	}
	return "nmos"
}

// Params holds the technology parameters of one device flavour.
type Params struct {
	Kind   Kind
	VTH0   float64 // zero-bias threshold voltage, V (positive for both kinds)
	KP     float64 // transconductance parameter µCox, A/V²
	Lambda float64 // channel-length modulation, 1/V
	N      float64 // subthreshold slope factor (dimensionless, ~1.2-1.5)
}

// AtTemperature returns the parameters shifted from the 300 K reference
// to the given junction temperature using the standard first-order
// dependences: threshold voltage drops ~1 mV/K and mobility follows a
// (T/300)^−1.5 power law. The subthreshold slope's kT/q dependence is a
// second-order effect for the monitor's boundaries and is not modelled
// (VThermal stays at its 300 K value).
func (p Params) AtTemperature(tempK float64) Params {
	if tempK <= 0 {
		tempK = 300
	}
	const vthTempco = 1e-3 // V/K
	out := p
	out.VTH0 -= vthTempco * (tempK - 300)
	out.KP *= math.Pow(tempK/300, -1.5)
	return out
}

// Default65nmNMOS returns nMOS parameters representative of a 65 nm bulk
// CMOS process (simulated substitute for the STMicroelectronics PDK).
func Default65nmNMOS() Params {
	return Params{Kind: NMOS, VTH0: 0.40, KP: 300e-6, Lambda: 0.15, N: 1.3}
}

// Default65nmPMOS returns matching pMOS parameters.
func Default65nmPMOS() Params {
	return Params{Kind: PMOS, VTH0: 0.42, KP: 90e-6, Lambda: 0.20, N: 1.35}
}

// Device is a sized transistor with its (possibly variation-perturbed)
// parameters.
type Device struct {
	Name string
	W, L float64 // channel width/length in meters
	P    Params
}

// NewDevice builds a device from W and L given in nanometers, which is how
// Table I of the paper specifies the monitor input transistors.
func NewDevice(name string, wNm, lNm float64, p Params) Device {
	return Device{Name: name, W: wNm * 1e-9, L: lNm * 1e-9, P: p}
}

// GateAreaUm2 returns W·L in µm².
func (d Device) GateAreaUm2() float64 { return d.W * d.L * 1e12 }

// veff returns the EKV-smoothed effective overdrive and its derivative
// with respect to VGS.
func (p Params) veff(vgs float64) (v, dv float64) {
	a := 2 * p.N * VThermal
	x := (vgs - p.VTH0) / a
	// Numerically safe softplus.
	switch {
	case x > 40:
		v = a * x
		dv = 1
	case x < -40:
		v = a * math.Exp(x)
		dv = math.Exp(x)
	default:
		e := math.Exp(x)
		v = a * math.Log1p(e)
		dv = e / (1 + e)
	}
	return v, dv
}

// OpPoint holds a DC operating point evaluation of a device.
type OpPoint struct {
	ID  float64 // drain current, A (flows D->S for NMOS with VDS>0)
	Gm  float64 // dID/dVGS, S
	Gds float64 // dID/dVDS, S
	Sat bool    // true when the device is in saturation
}

// Eval computes the drain current and small-signal derivatives of an nMOS
// device at the given terminal voltages (relative to the source). For
// pMOS devices pass vgs = VSG and vds = VSD (i.e. magnitudes); Current
// conventions are handled by the caller (the circuit stamps).
//
// VDS < 0 is handled by source/drain exchange (the device is symmetric),
// so Eval is well-defined over the whole plane.
func (d Device) Eval(vgs, vds float64) OpPoint {
	if vds < 0 {
		// Exchange source and drain: ID(vgs, vds) = -ID(vgs - vds, -vds).
		op := d.Eval(vgs-vds, -vds)
		// Chain rule for swapped terminals (vgs' = vgs−vds, vds' = −vds):
		// dI/dvgs = −dI'/dvgs',  dI/dvds = dI'/dvgs' + dI'/dvds'.
		return OpPoint{
			ID:  -op.ID,
			Gm:  -op.Gm,
			Gds: op.Gm + op.Gds,
			Sat: op.Sat,
		}
	}
	beta := d.P.KP * d.W / d.L
	ve, dve := d.P.veff(vgs)
	clm := 1 + d.P.Lambda*vds
	if vds >= ve {
		// Saturation.
		id := 0.5 * beta * ve * ve * clm
		return OpPoint{
			ID:  id,
			Gm:  beta * ve * clm * dve,
			Gds: 0.5 * beta * ve * ve * d.P.Lambda,
			Sat: true,
		}
	}
	// Triode.
	id := beta * (ve - 0.5*vds) * vds * clm
	gm := beta * vds * clm * dve
	gds := beta * ((ve-vds)*clm + (ve-0.5*vds)*vds*d.P.Lambda)
	return OpPoint{ID: id, Gm: gm, Gds: gds, Sat: false}
}

// Veff returns the EKV-smoothed effective overdrive at vgs: veff's
// value without its derivative, bit for bit.
func (p Params) Veff(vgs float64) float64 {
	a := 2 * p.N * VThermal
	x := (vgs - p.VTH0) / a
	switch {
	case x > 40:
		return a * x
	case x < -40:
		return a * math.Exp(x)
	default:
		return a * math.Log1p(math.Exp(x))
	}
}

// IDSat returns the saturation-region current at the given gate-source
// voltage, ignoring channel-length modulation. This is the quantity whose
// balance defines the monitor's zone boundaries (the differential pair
// keeps both summing nodes near the same potential, so CLM contributes
// only a second-order shift).
func (d Device) IDSat(vgs float64) float64 { return d.IDSatVeff(d.P.Veff(vgs)) }

// IDSatVeff is IDSat at effective overdrive ve = d.P.Veff(vgs), so a
// caller can share one Veff among devices with equal parameters.
func (d Device) IDSatVeff(ve float64) float64 { return 0.5 * d.P.KP * d.W / d.L * ve * ve }

// String implements fmt.Stringer.
func (d Device) String() string {
	return fmt.Sprintf("%s %s W=%gnm L=%gnm", d.Name, d.P.Kind, d.W*1e9, d.L*1e9)
}

// Corner identifies a foundry process corner: the first letter is the
// nMOS speed, the second the pMOS speed (slow devices have higher VTH
// and lower mobility).
type Corner int

// The five classic sign-off corners.
const (
	TT Corner = iota // typical/typical
	SS               // slow/slow
	FF               // fast/fast
	SF               // slow n / fast p
	FS               // fast n / slow p
)

// String implements fmt.Stringer.
func (c Corner) String() string {
	switch c {
	case SS:
		return "SS"
	case FF:
		return "FF"
	case SF:
		return "SF"
	case FS:
		return "FS"
	default:
		return "TT"
	}
}

// Corners lists all five sign-off corners.
func Corners() []Corner { return []Corner{TT, SS, FF, SF, FS} }

// cornerShift is the deterministic corner offset: ±3σ of the global
// spread in Default65nmVariation (±90 mV VTH, ∓15% KP).
const (
	cornerVth = 0.090
	cornerKp  = 0.15
)

// AtCorner returns the parameters shifted to the given process corner.
// Slow means higher threshold and lower transconductance.
func (p Params) AtCorner(c Corner) Params {
	slowN := c == SS || c == SF
	fastN := c == FF || c == FS
	slowP := c == SS || c == FS
	fastP := c == FF || c == SF
	out := p
	var slow, fast bool
	if p.Kind == PMOS {
		slow, fast = slowP, fastP
	} else {
		slow, fast = slowN, fastN
	}
	switch {
	case slow:
		out.VTH0 += cornerVth
		out.KP *= 1 - cornerKp
	case fast:
		out.VTH0 -= cornerVth
		out.KP *= 1 + cornerKp
	}
	return out
}

// Variation describes the statistical variability of a process in the
// two-component global+local decomposition used by foundry Monte Carlo
// decks.
type Variation struct {
	// Global (die-to-die) 1σ spreads, shared by every device in a sample.
	GlobalVTH float64 // V
	GlobalKP  float64 // relative (fraction of nominal)
	// Local (within-die) Pelgrom mismatch coefficients.
	AVT   float64 // V·m (σ(ΔVTH) = AVT/sqrt(W·L))
	ABeta float64 // ·m (σ(Δβ/β) = ABeta/sqrt(W·L))
}

// Default65nmVariation returns variability numbers representative of a
// 65 nm process: ±30 mV global VTH (1σ), 5% global KP, A_VT = 3.5 mV·µm,
// A_β = 1 %·µm.
func Default65nmVariation() Variation {
	return Variation{
		GlobalVTH: 0.030,
		GlobalKP:  0.05,
		AVT:       3.5e-3 * 1e-6,
		ABeta:     0.01 * 1e-6,
	}
}

// Die holds one Monte Carlo sample of the global process shift.
type Die struct {
	DVth float64 // additive VTH shift, V
	DKp  float64 // relative KP shift
	v    Variation
	str  *rng.Stream
}

// SampleDie draws one die's global corner from the variation model.
func (v Variation) SampleDie(src *rng.Stream) *Die {
	return &Die{
		DVth: src.Gauss(0, v.GlobalVTH),
		DKp:  src.Gauss(0, v.GlobalKP),
		v:    v,
		str:  src,
	}
}

// Perturb returns a copy of d with this die's global shift plus a fresh
// local mismatch draw applied. Each call models a distinct physical device.
func (die *Die) Perturb(d Device) Device {
	area := d.W * d.L
	sVth := die.v.AVT / math.Sqrt(area)
	sBeta := die.v.ABeta / math.Sqrt(area)
	out := d
	out.P.VTH0 += die.DVth + die.str.Gauss(0, sVth)
	out.P.KP *= (1 + die.DKp) * (1 + die.str.Gauss(0, sBeta))
	if out.P.KP < 1e-9 {
		out.P.KP = 1e-9 // keep the model physical under extreme draws
	}
	return out
}
