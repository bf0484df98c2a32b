// Package rng provides small, fast, deterministic pseudo-random streams
// for Monte Carlo process variation, device mismatch, and measurement
// noise. Every experiment in the repository seeds its own stream so all
// figures and tables are bit-reproducible run to run.
//
// The generator is splitmix64 feeding a xoshiro256** core — high quality,
// trivially seedable, and allocation-free. Gaussian variates use the
// Marsaglia polar method with a cached spare: Polar draws the accepted
// pair and PolarScale turns it into two variates, so a caller that
// forms the variates itself (or knows it will not need them) draws the
// same pairs as Norm, in Norm's order.
package rng

import "math"

// Stream is a deterministic pseudo-random stream. The zero value is not
// usable; construct with New.
//
// A Stream is NOT safe for concurrent use: every draw mutates the
// generator state, so two goroutines sharing one stream race and destroy
// reproducibility. Give each goroutine its own stream — derived with
// NewSub(root, id) from a pure (seed, index) pair, or with Split called
// serially before fan-out. The campaign engine does exactly this for
// Monte Carlo trials.
type Stream struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// splitmix64 is used to expand a single seed into the xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	x := seed
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	// Avoid the (practically impossible) all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return st
}

// Split derives a new independent stream from s, keyed by id. It is used
// to give each Monte Carlo sample or each device its own stream without
// coordinating seeds globally. Split advances s, so the derived stream
// depends on call order: call it serially (before any fan-out) when the
// substreams feed parallel workers.
func (s *Stream) Split(id uint64) *Stream {
	return New(s.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

// NewSub returns the id-th substream of the root seed. Unlike Split it is
// a pure function of (root, id) — it reads no shared state, so parallel
// workers can derive their trial streams concurrently and the result is
// independent of scheduling and worker count.
func NewSub(root, id uint64) *Stream {
	x := root
	a := splitmix64(&x)
	y := id ^ 0xd1b54a32d192ed03
	b := splitmix64(&y)
	return New(a ^ rotl(b, 17) ^ 0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** step as a pure function of the state: it
// returns the output and the next state. Uint64 and PolarFill share it;
// it inlines, so PolarFill's loop keeps the state in registers.
func step(s0, s1, s2, s3 uint64) (r, n0, n1, n2, n3 uint64) {
	r = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return r, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	r, s0, s1, s2, s3 := step(s.s[0], s.s[1], s.s[2], s.s[3])
	s.s = [4]uint64{s0, s1, s2, s3}
	return r
}

// unit maps 64 random bits to a uniform variate in [0, 1).
func unit(r uint64) float64 { return float64(r>>11) / (1 << 53) }

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return unit(s.Uint64()) }

// Polar draws the next accepted pair of the Marsaglia polar method: u
// and v uniform on (−1, 1), redrawn until 0 < r2 = u² + v² < 1. It
// neither reads nor clears Norm's spare.
func (s *Stream) Polar() (u, v, r2 float64) {
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 < 1 && r2 != 0 {
			return u, v, r2
		}
	}
}

// PolarScale is the factor f = √(−2·ln r2 / r2) that turns an accepted
// polar pair into two independent standard Gaussian variates, u·f and
// v·f. Both are at most √(−2·ln r2) in magnitude, because |u| and |v|
// are at most √r2.
func PolarScale(r2 float64) float64 { return math.Sqrt(-2 * math.Log(r2) / r2) }

// PolarFill draws len(us) accepted pairs into us, vs and r2s (which
// must be at least as long), draw for draw the pairs that many Polar
// calls return, and leaves the stream in the same state. The generator
// state stays in locals for the whole block. Pairs drawn while Norm
// holds a spare would be used out of Norm's order, so PolarFill panics
// when one is pending; a fresh stream (New, Split, NewSub) holds none.
//
//mclint:hotpath
func (s *Stream) PolarFill(us, vs, r2s []float64) {
	if s.haveSpare {
		panic("rng: PolarFill on a stream with a Norm spare pending")
	}
	vs, r2s = vs[:len(us)], r2s[:len(us)]
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range us {
		for {
			var a, b uint64
			a, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			u, v := 2*unit(a)-1, 2*unit(b)-1
			if r2 := u*u + v*v; r2 < 1 && r2 != 0 {
				us[i], vs[i], r2s[i] = u, v, r2
				break
			}
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Norm returns a standard Gaussian variate (mean 0, std 1).
func (s *Stream) Norm() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	u, v, r2 := s.Polar()
	f := PolarScale(r2)
	s.spare = v * f
	s.haveSpare = true
	return u * f
}

// Gauss returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Stream) Gauss(mean, std float64) float64 {
	return mean + std*s.Norm()
}
