package stat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements the repository's mergeable quantile sketch — the
// streaming replacement for the "collect every sample, sort, take a
// quantile" pattern the noise campaigns' null calibration used to pay
// O(trials) memory for.
//
// The sketch is a fixed-precision value histogram in the DDSketch/HDR
// family: every finite sample is routed to a bucket addressed by its
// binary exponent (one octave per exponent) and a linear sub-bucket
// within the octave. With S = 2^prec sub-buckets per octave, a bucket
// midpoint is within relative error 1/(2S) = 2^-(prec+1) of every value
// the bucket holds, so any quantile read back from the sketch carries
// that same relative error bound. All state is integer counts plus exact
// running min/max, which makes Merge exact, associative and commutative:
// merging per-chunk sketches in stable index order (the campaign.Reduce
// contract) — or any other order — reproduces the single-stream sketch
// bit for bit at any worker count.
//
// Quantile(0) and Quantile(1) return the exact tracked min/max, so a
// max-quantile threshold calibration (the noise campaigns' case) is not
// merely within error bounds of the materializing path — it is equal.

const (
	// MinSketchPrecision and MaxSketchPrecision bound the prec argument
	// of NewQuantileSketch: sub-buckets per octave = 2^prec.
	MinSketchPrecision = 1
	MaxSketchPrecision = 12
	// DefaultSketchPrecision gives 64 sub-buckets per octave — relative
	// quantile error <= 2^-7 (~0.8%) at 64 KiB per touched sign, the
	// balance the noise calibrations default to.
	DefaultSketchPrecision = 6

	// sketchMinExp/sketchMaxExp bound the octave range: finite values
	// with binary exponent (math.Frexp convention) in [sketchMinExp,
	// sketchMaxExp) are bucketed; |x| below ~5.4e-20 or at/above ~9.2e18
	// fall into dedicated low/high overflow counters whose
	// representatives are the exact tracked extrema, so the relative
	// error bound holds on the indexed range and degrades gracefully
	// outside it.
	sketchMinExp  = -64
	sketchMaxExp  = 64
	sketchOctaves = sketchMaxExp - sketchMinExp
)

// QuantileSketch is a deterministic, mergeable, fixed-precision quantile
// sketch. The zero value is not ready to use; construct with
// NewQuantileSketch. Methods are not safe for concurrent use — the
// campaign engine gives every chunk (or worker) its own sketch and
// merges in stable order.
type QuantileSketch struct {
	prec int // sub-bucket bits per octave; S = 1 << prec

	// pos/neg hold per-bucket counts for positive/negative finite
	// values in the indexed octave range; each is allocated lazily on
	// the first push of that sign (never on the warm path).
	pos, neg []uint64
	// zero counts exact zeros; posLow/negLow count finite magnitudes
	// below the indexed range, posHigh/negHigh those at or above it.
	zero            uint64
	posLow, posHigh uint64
	negLow, negHigh uint64
	invalid         uint64 // NaN and ±Inf pushes
	n               uint64 // everything, including invalid
	min, max        float64
}

// NewQuantileSketch returns an empty sketch with 2^prec sub-buckets per
// octave (relative quantile error <= 2^-(prec+1) on the indexed range).
// It panics when prec is outside [MinSketchPrecision,
// MaxSketchPrecision], matching the package's constructor conventions.
func NewQuantileSketch(prec int) *QuantileSketch {
	if prec < MinSketchPrecision || prec > MaxSketchPrecision {
		panic(fmt.Sprintf("stat: sketch precision %d out of [%d, %d]", prec, MinSketchPrecision, MaxSketchPrecision))
	}
	return &QuantileSketch{prec: prec, min: math.Inf(1), max: math.Inf(-1)}
}

// RelativeError returns the documented worst-case relative error of a
// quantile read from the indexed value range: 2^-(prec+1).
func (s *QuantileSketch) RelativeError() float64 {
	return math.Ldexp(1, -(s.prec + 1))
}

// numBuckets returns the dense bucket count per sign.
func (s *QuantileSketch) numBuckets() int { return sketchOctaves << s.prec }

// bucketIndex maps a positive finite magnitude inside the indexed range
// to its dense bucket index. m = frac * 2^exp with frac in [0.5, 1);
// the octave is exp, the sub-bucket the linear position of frac.
func (s *QuantileSketch) bucketIndex(m float64) int {
	frac, exp := math.Frexp(m)
	sub := int(math.Ldexp(frac-0.5, s.prec+1)) // (2*frac - 1) * 2^prec
	if sub >= 1<<s.prec {                      // frac == nextafter(1, 0) rounding guard
		sub = 1<<s.prec - 1
	}
	return (exp-sketchMinExp)<<s.prec + sub
}

// bucketMid returns the representative (midpoint) value of dense bucket
// index b, the inverse of bucketIndex up to half a sub-bucket.
func (s *QuantileSketch) bucketMid(b int) float64 {
	exp := b>>s.prec + sketchMinExp
	sub := b & (1<<s.prec - 1)
	frac := 0.5 + math.Ldexp(float64(sub)+0.5, -(s.prec+1))
	return math.Ldexp(frac, exp)
}

// side returns the bucket slice for one sign, allocating it on first
// use; the warm path never reaches the allocation.
func (s *QuantileSketch) side(counts *[]uint64) []uint64 {
	if *counts == nil {
		*counts = make([]uint64, s.numBuckets())
	}
	return *counts
}

// Push adds one observation. NaN and ±Inf are counted as invalid and
// reported by Quantile — they never poison the bucketed distribution
// silently. The warm path (each sign's bucket array already touched) is
// allocation-free.
//
//mclint:hotpath
func (s *QuantileSketch) Push(x float64) {
	s.n++
	if math.IsNaN(x) || math.IsInf(x, 0) {
		s.invalid++
		return
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x == 0 {
		s.zero++
		return
	}
	m := x
	counts := &s.pos
	low, high := &s.posLow, &s.posHigh
	if x < 0 {
		m = -x
		counts = &s.neg
		low, high = &s.negLow, &s.negHigh
	}
	_, exp := math.Frexp(m)
	switch {
	case exp < sketchMinExp:
		*low++
	case exp >= sketchMaxExp:
		*high++
	default:
		s.side(counts)[s.bucketIndex(m)]++
	}
}

// N returns the number of observations pushed (including invalid ones).
func (s *QuantileSketch) N() int { return int(s.n) }

// Invalid returns the number of NaN/±Inf observations pushed.
func (s *QuantileSketch) Invalid() int { return int(s.invalid) }

// Reset empties the sketch in place, keeping the bucket arrays for
// reuse — the hook the pooled chunk accumulators of campaign reductions
// use to stay allocation-flat at any trial count.
func (s *QuantileSketch) Reset() {
	clear(s.pos)
	clear(s.neg)
	s.zero, s.posLow, s.posHigh, s.negLow, s.negHigh = 0, 0, 0, 0, 0
	s.invalid, s.n = 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}

// Merge folds other into s. All sketch state is integer counts plus
// exact extrema, so the merge is exact, associative and commutative:
// per-chunk sketches merged in stable index order (or any order)
// reproduce the single-stream sketch bit for bit at any worker count.
// It panics when the two sketches were built at different precisions —
// their buckets are not comparable.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other.prec != s.prec {
		panic(fmt.Sprintf("stat: merging sketches of precision %d and %d", s.prec, other.prec))
	}
	if other.pos != nil {
		dst := s.side(&s.pos)
		for i, c := range other.pos {
			dst[i] += c
		}
	}
	if other.neg != nil {
		dst := s.side(&s.neg)
		for i, c := range other.neg {
			dst[i] += c
		}
	}
	s.zero += other.zero
	s.posLow += other.posLow
	s.posHigh += other.posHigh
	s.negLow += other.negLow
	s.negHigh += other.negHigh
	s.invalid += other.invalid
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// ErrInvalidSample is returned by Quantile when the sketch holds NaN or
// ±Inf observations — a quantile of a poisoned sample is meaningless.
var ErrInvalidSample = errors.New("stat: sketch holds non-finite observations")

// Quantile returns the q-th quantile (0 <= q <= 1) of the sketched
// distribution. Semantics mirror Quantile on a materialized sample
// (type 7: linear interpolation between order statistics), with each
// order statistic read from its bucket midpoint — so the result is
// within relative error 2^-(prec+1) of the exact quantile for values in
// the indexed range, and Quantile(0)/Quantile(1) are the exact min/max.
// It returns ErrEmpty on an empty sketch and ErrInvalidSample when NaN
// or ±Inf observations were pushed.
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stat: quantile %g out of [0,1]", q)
	}
	if s.n == 0 {
		return 0, ErrEmpty
	}
	if s.invalid > 0 {
		return 0, fmt.Errorf("%w: %d of %d", ErrInvalidSample, s.invalid, s.n)
	}
	n := s.n
	if n == 1 {
		return s.min, nil
	}
	pos := q * float64(n-1)
	k := uint64(pos)
	frac := pos - float64(k)
	lo := s.valueAtRank(k)
	if frac == 0 {
		return s.clamp(lo), nil
	}
	hi := s.valueAtRank(k + 1)
	return s.clamp(lo*(1-frac) + hi*frac), nil
}

// clamp bounds a bucket-midpoint estimate by the exact extrema.
func (s *QuantileSketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// valueAtRank returns the representative value of the k-th smallest
// observation (0-based) by scanning the bucket categories in ascending
// value order. Rank 0 and rank n-1 return the exact extrema.
func (s *QuantileSketch) valueAtRank(k uint64) float64 {
	if k == 0 {
		return s.min
	}
	if k >= s.n-1 {
		return s.max
	}
	var cum uint64
	step := func(c uint64) bool {
		cum += c
		return k < cum
	}
	// Most-negative first: magnitudes above the indexed range...
	if step(s.negHigh) {
		return s.min // exact: these are the most negative observations
	}
	// ...then negative buckets, descending magnitude.
	for i := len(s.neg) - 1; i >= 0; i-- {
		if s.neg[i] != 0 && step(s.neg[i]) {
			return -s.bucketMid(i)
		}
	}
	if step(s.negLow) {
		return -math.Ldexp(1, sketchMinExp-1) // |x| < 2^min: abs error < 2.8e-20
	}
	if step(s.zero) {
		return 0
	}
	if step(s.posLow) {
		return math.Ldexp(1, sketchMinExp-1)
	}
	for i := 0; i < len(s.pos); i++ {
		if s.pos[i] != 0 && step(s.pos[i]) {
			return s.bucketMid(i)
		}
	}
	return s.max // posHigh (or rounding residue): exact max is the top
}

// Binary encoding: a compact, sparse, canonical form for checkpointing
// and shard transport. Layout (little-endian, uvarint = binary.PutUvarint):
//
//	magic "QSK1" | prec byte | n, zero, posLow, posHigh, negLow,
//	negHigh, invalid uvarint | min, max float64 bits |
//	posPairs uvarint | (index delta uvarint, count uvarint)* |
//	negPairs uvarint | (index delta uvarint, count uvarint)*
//
// Bucket pairs are emitted in ascending index order with delta-coded
// indices and omit empty buckets, so the encoding is canonical: equal
// sketch contents marshal to equal bytes.

var sketchMagic = [4]byte{'Q', 'S', 'K', '1'}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *QuantileSketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, sketchMagic[:]...)
	buf = append(buf, byte(s.prec))
	for _, v := range []uint64{s.n, s.zero, s.posLow, s.posHigh, s.negLow, s.negHigh, s.invalid} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	buf = appendSparse(buf, s.pos)
	buf = appendSparse(buf, s.neg)
	return buf, nil
}

// appendSparse emits the non-zero (delta-coded index, count) pairs of a
// dense count array, preceded by the pair count.
func appendSparse(buf []byte, counts []uint64) []byte {
	pairs := 0
	for _, c := range counts {
		if c != 0 {
			pairs++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(pairs))
	prev := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev))
		buf = binary.AppendUvarint(buf, c)
		prev = i
	}
	return buf
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It validates
// structure and consistency — precision range, bucket bounds, count
// totals, extremum sanity — so arbitrary bytes can never produce a
// sketch that later misbehaves (the same contract the signature decoder
// holds, and the one the fuzz target exercises).
func (s *QuantileSketch) UnmarshalBinary(data []byte) error {
	r := &byteReader{data: data}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil {
		return fmt.Errorf("stat: sketch decode: %w", err)
	}
	if magic != sketchMagic {
		return errors.New("stat: sketch decode: bad magic")
	}
	precByte, err := r.byte()
	if err != nil {
		return fmt.Errorf("stat: sketch decode: %w", err)
	}
	prec := int(precByte)
	if prec < MinSketchPrecision || prec > MaxSketchPrecision {
		return fmt.Errorf("stat: sketch decode: precision %d out of [%d, %d]", prec, MinSketchPrecision, MaxSketchPrecision)
	}
	var hdr [7]uint64
	for i := range hdr {
		if hdr[i], err = r.uvarint(); err != nil {
			return fmt.Errorf("stat: sketch decode: %w", err)
		}
	}
	minBits, err := r.uint64()
	if err != nil {
		return fmt.Errorf("stat: sketch decode: %w", err)
	}
	maxBits, err := r.uint64()
	if err != nil {
		return fmt.Errorf("stat: sketch decode: %w", err)
	}
	out := NewQuantileSketch(prec)
	out.n, out.zero, out.posLow, out.posHigh, out.negLow, out.negHigh, out.invalid =
		hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5], hdr[6]
	out.min, out.max = math.Float64frombits(minBits), math.Float64frombits(maxBits)
	pos, posSum, err := readSparseCounts(r, out.numBuckets())
	if err != nil {
		return fmt.Errorf("stat: sketch decode: positive buckets: %w", err)
	}
	neg, negSum, err := readSparseCounts(r, out.numBuckets())
	if err != nil {
		return fmt.Errorf("stat: sketch decode: negative buckets: %w", err)
	}
	out.pos, out.neg = pos, neg
	bucketed := posSum + negSum
	if r.len() != 0 {
		return fmt.Errorf("stat: sketch decode: %d trailing bytes", r.len())
	}
	// Consistency: every observation is accounted for exactly once.
	total := bucketed + out.zero + out.posLow + out.posHigh + out.negLow + out.negHigh + out.invalid
	if total != out.n {
		return fmt.Errorf("stat: sketch decode: counts sum to %d, header says %d", total, out.n)
	}
	finite := out.n - out.invalid
	if finite == 0 {
		if !math.IsInf(out.min, 1) || !math.IsInf(out.max, -1) {
			return errors.New("stat: sketch decode: extrema set without finite observations")
		}
	} else {
		if math.IsNaN(out.min) || math.IsNaN(out.max) || math.IsInf(out.min, 0) || math.IsInf(out.max, 0) {
			return errors.New("stat: sketch decode: non-finite extrema")
		}
		if out.min > out.max {
			return fmt.Errorf("stat: sketch decode: min %g above max %g", out.min, out.max)
		}
	}
	*s = *out
	return nil
}

// readSparseCounts decodes one canonical sparse (delta-coded index,
// count) pair list into a dense array of the given size — allocated
// only when pairs exist — returning the array (nil when empty) and the
// summed counts. Shared by the sketch and histogram decoders.
func readSparseCounts(r *byteReader, size int) ([]uint64, uint64, error) {
	pairs, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if pairs == 0 {
		return nil, 0, nil
	}
	if pairs > uint64(size) {
		return nil, 0, fmt.Errorf("%d pairs exceed %d buckets", pairs, size)
	}
	dst := make([]uint64, size)
	idx := -1
	var sum uint64
	for p := uint64(0); p < pairs; p++ {
		delta, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		count, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if count == 0 {
			return nil, 0, errors.New("zero count pair breaks canonical form")
		}
		step := int(delta)
		if p == 0 {
			idx = step
		} else {
			if delta == 0 {
				return nil, 0, errors.New("duplicate bucket index")
			}
			if step < 0 {
				return nil, 0, errors.New("bucket index overflow")
			}
			idx += step
		}
		if idx < 0 || idx >= size {
			return nil, 0, fmt.Errorf("bucket index %d out of %d", idx, size)
		}
		next := sum + count
		if next < sum {
			return nil, 0, errors.New("count overflow")
		}
		sum = next
		dst[idx] = count
	}
	return dst, sum, nil
}

// byteReader is a minimal bounds-checked cursor over a byte slice —
// enough for the sketch and histogram decoders without pulling in
// bytes.Reader's error paths.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) len() int { return len(r.data) - r.off }

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, errors.New("truncated")
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) bytes(dst []byte) error {
	if r.len() < len(dst) {
		return errors.New("truncated")
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *byteReader) uint64() (uint64, error) {
	if r.len() < 8 {
		return 0, errors.New("truncated")
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	r.off += n
	return v, nil
}
