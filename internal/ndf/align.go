package ndf

import (
	"math"

	"repro/internal/signature"
)

// Rotate returns the signature advanced by dt: the rotated signature's
// code at time t equals the original's at time t+dt. dt may be any real
// number; it is wrapped into [0, Period).
func Rotate(s *signature.Signature, dt float64) *signature.Signature {
	T := s.Period
	dt = math.Mod(dt, T)
	if dt < 0 {
		dt += T
	}
	if dt == 0 || len(s.Entries) == 0 {
		out := &signature.Signature{Period: T}
		out.Entries = append(out.Entries, s.Entries...)
		return out
	}
	// Locate the entry active at dt and split there.
	acc := 0.0
	idx := 0
	var within float64
	for i, e := range s.Entries {
		if dt < acc+e.Dur {
			idx = i
			within = dt - acc
			break
		}
		acc += e.Dur
		idx = i
	}
	out := &signature.Signature{Period: T}
	// Remainder of the split entry first.
	first := s.Entries[idx]
	if rem := first.Dur - within; rem > 0 {
		out.Entries = append(out.Entries, signature.Entry{Code: first.Code, Dur: rem})
	}
	for i := idx + 1; i < len(s.Entries); i++ {
		out.Entries = append(out.Entries, s.Entries[i])
	}
	for i := 0; i < idx; i++ {
		out.Entries = append(out.Entries, s.Entries[i])
	}
	if within > 0 {
		out.Entries = append(out.Entries, signature.Entry{Code: first.Code, Dur: within})
	}
	return out.Canonical()
}
