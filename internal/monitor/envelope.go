package monitor

import (
	"math"

	"repro/internal/campaign"
)

// envelopeReducer is the reduction behind MCEnvelopeCtx. The
// accumulator is the envelope itself: per-column boundary values in die
// order. Fold appends one die's crossings (skipping columns the die
// never crossed); Merge concatenates chunks column-wise — chunk order
// is die order, so the merged envelope matches a serial run bit for
// bit.
func envelopeReducer(nCols int) campaign.Reducer[[]float64, [][]float64] {
	return campaign.Reducer[[]float64, [][]float64]{
		New: func() [][]float64 { return make([][]float64, nCols) },
		Fold: func(acc [][]float64, _ int, col []float64) [][]float64 {
			for i, y := range col {
				if !math.IsNaN(y) {
					acc[i] = append(acc[i], y)
				}
			}
			return acc
		},
		Merge: func(into, next [][]float64) [][]float64 {
			for i := range into {
				into[i] = append(into[i], next[i]...)
			}
			return into
		},
	}
}
