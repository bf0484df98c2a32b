package ndf

import (
	"encoding/binary"
	"testing"

	"repro/internal/monitor"
	"repro/internal/signature"
)

// fuzzSig decodes a signature over period from data: every 6 bytes are
// a code (uint32) and a weight (uint16, plus one); each entry's duration
// is its share of the period, and the last one is lengthened by
// slack·period. Runs of one code merge into one entry.
func fuzzSig(period float64, data []byte, slack float64) *signature.Signature {
	var codes []monitor.Code
	var weights []float64
	total := 0.0
	for ; len(data) >= 6; data = data[6:] {
		c := monitor.Code(binary.LittleEndian.Uint32(data))
		w := float64(binary.LittleEndian.Uint16(data[4:])) + 1
		total += w
		if n := len(codes); n > 0 && codes[n-1] == c {
			weights[n-1] += w
			continue
		}
		codes = append(codes, c)
		weights = append(weights, w)
	}
	s := &signature.Signature{Period: period}
	for i, c := range codes {
		s.Entries = append(s.Entries, signature.Entry{Code: c, Dur: period * weights[i] / total})
	}
	if n := len(s.Entries); n > 0 {
		s.Entries[n-1].Dur += slack * period
	}
	return s
}

// FuzzNDF: for any two signatures that pass Validate and share a
// period, NDF returns, without error, a value in [0, 32] — the largest
// Hamming distance two 32-bit codes can have — up to the rounding of
// its breakpoint sweep. A hang is reported by the fuzzer itself. The
// seed is a last entry 1e-9·T short of the period, which once made NDF
// loop forever.
func FuzzNDF(f *testing.F) {
	entry := func(code uint32, w uint16) []byte {
		b := binary.LittleEndian.AppendUint32(nil, code)
		return binary.LittleEndian.AppendUint16(b, w)
	}
	join := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	f.Add(200e-6, join(entry(1, 0), entry(3, 0)), -1e-9, join(entry(1, 0), entry(2, 0)), 0.0)
	f.Add(1.0, entry(0, 7), 0.0, join(entry(0xffffffff, 3), entry(5, 9)), 5e-7)
	f.Fuzz(func(t *testing.T, period float64, obs []byte, obsSlack float64, gold []byte, goldSlack float64) {
		o, g := fuzzSig(period, obs, obsSlack), fuzzSig(period, gold, goldSlack)
		if o.Validate() != nil || g.Validate() != nil {
			return
		}
		v, err := NDF(o, g)
		if err != nil {
			t.Fatalf("NDF of two valid signatures: %v", err)
		}
		if !(v >= 0 && v <= 32*(1+1e-12)) {
			t.Fatalf("NDF = %v, want a value in [0, 32]", v)
		}
	})
}
