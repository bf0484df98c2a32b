package monitor

import "math/bits"

// OpenMonitors returns how many monitors the zone-LUT coarse cell
// holding (x, y) leaves unproven, and how many of those the staircases
// leave open at the point too: the monitors ClassifyBatch evaluates Bit
// for there. Both are 0 outside the grid and for banks without a LUT.
func OpenMonitors(b *Bank, x, y float64) (coarse, fine int) {
	l := b.lut()
	if l == nil || !(x >= 0 && x < 1 && y >= 0 && y < 1) {
		return 0, 0
	}
	_, open := l.lookup(x, y)
	i, j := int(x*lutFine), int(y*lutFine)
	for m := open; m != 0; m &= m - 1 {
		if _, ok := l.prove(bits.TrailingZeros32(m), i, i, j, j); !ok {
			fine++
		}
	}
	return bits.OnesCount32(open), fine
}
