package num

import (
	"errors"
)

// ErrNoBracket is returned by Bisect when f(lo) and f(hi) have the same sign.
var ErrNoBracket = errors.New("num: root not bracketed")

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("num: iteration did not converge")

// Bisect finds a root of f in [lo, hi] by bisection. f(lo) and f(hi) must
// have opposite signs (an endpoint that is exactly zero is returned
// immediately). The result is accurate to within tol in x.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if hi-lo <= tol {
			return mid, nil
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), ErrNoConverge
}
