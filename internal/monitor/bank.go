package monitor

import (
	"context"
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/mos"
)

// Code is an n-bit zone code. Monitor i (0-based) contributes bit i; the
// paper prints codes MSB-first with monitor 1 as the MSB, which String
// reproduces.
type Code uint32

// Bit returns bit i of the code.
func (c Code) Bit(i int) int { return int(c>>uint(i)) & 1 }

// HammingDistance returns the number of differing bits between two codes.
func (c Code) HammingDistance(o Code) int {
	x := uint32(c ^ o)
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Bank is an ordered set of monitors producing a zone code per (x, y).
// Classify answers one point exactly; ClassifyBatch answers sample grids
// and ClassifyLUT single points through the certified zone LUT (see
// lut.go) with bit-identical results.
type Bank struct {
	monitors []Monitor
	lutState
}

// NewBank creates a bank from monitors; order fixes bit positions.
func NewBank(ms ...Monitor) *Bank {
	return &Bank{monitors: ms}
}

// NewAnalyticTableI builds the paper's 6-monitor bank with the analytic
// model — the default signature-generation front end.
func NewAnalyticTableI() *Bank {
	cfgs := TableI()
	ms := make([]Monitor, len(cfgs))
	for i, c := range cfgs {
		ms[i] = MustAnalytic(c)
	}
	return NewBank(ms...)
}

// NewSpiceTableI builds the Table I bank at transistor level: every zone
// bit comes from a Newton-Raphson DC solution of the Fig. 2 netlist.
// Roughly three orders of magnitude slower than the analytic bank; used
// by integration tests and the hardware cross-check example.
func NewSpiceTableI() (*Bank, error) {
	cfgs := TableI()
	ms := make([]Monitor, len(cfgs))
	for i, c := range cfgs {
		m, err := NewSpice(c, nil)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return NewBank(ms...), nil
}

// Size returns the number of monitors (code bits).
func (b *Bank) Size() int { return len(b.monitors) }

// Monitors returns the ordered monitors.
func (b *Bank) Monitors() []Monitor { return b.monitors }

// Classify returns the zone code at (x, y).
//
//mclint:hotpath
func (b *Bank) Classify(x, y float64) Code {
	var c Code
	for i, m := range b.monitors {
		if m.Bit(x, y) == 1 {
			c |= 1 << uint(i)
		}
	}
	return c
}

// FormatCode renders a code with monitor 1 as the most significant
// printed bit followed by its decimal value, matching Fig. 6 labels like
// "011100 (28)".
func (b *Bank) FormatCode(c Code) string {
	n := len(b.monitors)
	bits := make([]byte, n)
	dec := 0
	for i := 0; i < n; i++ {
		bit := c.Bit(i)
		bits[i] = byte('0' + bit)
		dec = dec<<1 | bit
	}
	return fmt.Sprintf("%s (%d)", string(bits), dec)
}

// Decimal returns the MSB-first decimal value used in the paper's labels.
func (b *Bank) Decimal(c Code) int {
	dec := 0
	for i := 0; i < len(b.monitors); i++ {
		dec = dec<<1 | c.Bit(i)
	}
	return dec
}

// Perturbed returns a new bank with every analytic monitor's input
// devices re-sampled from the given die (process + mismatch Monte Carlo).
// Non-analytic monitors are passed through unchanged.
func (b *Bank) Perturbed(die *mos.Die) *Bank {
	out := make([]Monitor, len(b.monitors))
	for i, m := range b.monitors {
		if a, ok := m.(*Analytic); ok {
			out[i] = a.Perturbed(die)
		} else {
			out[i] = m
		}
	}
	return NewBank(out...)
}

// MCEnvelopeCtx traces the zone boundary of monitor index mi across
// nDies Monte Carlo samples and returns, for each x column, the set of
// boundary y values found (suitable for quantile envelopes), in die
// order. Columns with no boundary crossing in a sample are skipped for
// that sample.
//
// Dies stream through the campaign reduction engine: each worker folds
// its chunk of dies into per-column slices that are merged in die order,
// and every die derives its random stream inside the worker as a pure
// function of (seed, die index) — no serial stream pre-pass, no O(dies)
// result slots, and a result that is bit-identical regardless of
// scheduling or worker count. The engine sets the worker bound, chunk
// size and progress; the only error it can return is the context's,
// once cancellation stops the die fan-out.
func (b *Bank) MCEnvelopeCtx(ctx context.Context, mi int, variation mos.Variation, seed uint64, nDies, nCols int, eng campaign.Engine) (xs []float64, ys [][]float64, err error) {
	a, ok := b.monitors[mi].(*Analytic)
	if !ok {
		panic("monitor: MCEnvelope requires an analytic monitor")
	}
	xs = make([]float64, nCols)
	for i := range xs {
		xs[i] = float64(i) / float64(nCols-1)
	}
	eng.Seed = seed
	// The reduction is the envelope fold (envelope.go): per-column
	// boundary values appended in die order, chunks concatenated
	// column-wise, so the merged envelope matches a serial run bit for
	// bit.
	ys, err = campaign.Reduce(ctx, eng, nDies,
		envelopeReducer(nCols),
		func(d int) ([]float64, error) {
			pm := a.Perturbed(variation.SampleDie(eng.Stream(d)))
			col := make([]float64, nCols)
			for i, x := range xs {
				if y, ok := pm.BoundaryY(x, 0, 1); ok {
					col[i] = y
				} else {
					col[i] = math.NaN()
				}
			}
			return col, nil
		})
	if err != nil {
		return nil, nil, err
	}
	return xs, ys, nil
}
