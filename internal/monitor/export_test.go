package monitor

import "math/bits"

// OpenMonitors is the number of monitors the zone-LUT cell holding
// (x, y) leaves unproven: the monitors ClassifyBatch evaluates Bit for
// there. It is 0 in fully proven cells, outside the grid and for banks
// without a LUT.
func OpenMonitors(b *Bank, x, y float64) int {
	l := b.lut()
	if l == nil || !(x >= 0 && x < 1 && y >= 0 && y < 1) {
		return 0
	}
	cell := l.cells[int(y*lutCells)*lutCells+int(x*lutCells)]
	return bits.OnesCount32(l.all &^ (cell >> lutMaxMonitors))
}
