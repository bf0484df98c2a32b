package signature

import (
	"fmt"
	"math"

	"repro/internal/monitor"
)

// CaptureConfig models the asynchronous capture hardware of Fig. 5: the
// monitor outputs feed a transition detector; an m-bit counter running on
// the master clock measures the time spent in each zone and is reset on
// every code change.
type CaptureConfig struct {
	ClockHz     float64 // master clock frequency
	CounterBits int     // m, the time-register width
	// MinStableTicks makes the transition detector accept a new code
	// only after it has been observed for this many consecutive clock
	// ticks (0 or 1 = immediate). Hardware deglitching: noise chatter at
	// a zone boundary rarely holds a code for several ticks, so a small
	// value suppresses spurious transitions without moving genuine ones
	// (the stable run is attributed retroactively to the new zone).
	MinStableTicks int
}

// DefaultCapture is the configuration used throughout the reproduction:
// 10 MHz master clock and a 16-bit counter (2000 clocks per 200 µs
// Lissajous period, far from wrap).
func DefaultCapture() CaptureConfig {
	return CaptureConfig{ClockHz: 10e6, CounterBits: 16}
}

// Validate checks the configuration.
func (c CaptureConfig) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("signature: clock %g Hz must be positive", c.ClockHz)
	}
	if c.CounterBits < 1 || c.CounterBits > 32 {
		return fmt.Errorf("signature: counter bits %d out of [1,32]", c.CounterBits)
	}
	if c.MinStableTicks < 0 {
		return fmt.Errorf("signature: negative deglitch depth %d", c.MinStableTicks)
	}
	return nil
}

// MaxCount returns the largest counter value before wrap (2^m − 1).
func (c CaptureConfig) MaxCount() uint64 { return 1<<uint(c.CounterBits) - 1 }

// Ticks returns the number of master-clock samples one capture takes
// over period T — the length of the per-tick code slice the batched
// pipeline supplies (tick k samples t = k/ClockHz, k = 0 … n−1).
func (c CaptureConfig) Ticks(T float64) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if T <= 0 {
		return 0, fmt.Errorf("signature: period %g must be positive", T)
	}
	tick := 1 / c.ClockHz
	n := int(math.Round(T / tick))
	if n < 2 {
		return 0, fmt.Errorf("signature: period %g too short for clock %g", T, c.ClockHz)
	}
	return n, nil
}

// Capture runs the clocked acquisition over one period T: the classifier
// is sampled on every master-clock tick; a code change latches the
// counter into the time register and resets it. If a zone dwell exceeds
// the counter range, the counter wraps and the capture emits a split
// entry of the maximum measurable duration — the post-processing
// Canonical() merge restores the total dwell, which is how the readout
// software of such a monitor recovers long intervals.
func Capture(classify Classifier, T float64, cfg CaptureConfig) (*Signature, error) {
	entries, err := captureRaw(classify, T, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &Signature{Period: T, Entries: entries}, nil
}

// CaptureBuffer holds reusable scratch for repeated captures, so a
// Monte-Carlo trial loop does not re-allocate the raw entry sequence,
// the per-tick code grid, or the canonical result on every period. One
// buffer per campaign worker; like rng.Stream it is not safe for
// concurrent use.
type CaptureBuffer struct {
	raw   []Entry
	canon []Entry
	codes []monitor.Code
	sig   Signature
}

// Codes returns the buffer's per-tick code scratch resized to n slots
// (contents undefined). The batched pipeline fills it and hands it to
// CaptureCanonicalCodes; reusing the buffer's scratch keeps the steady
// state allocation-free.
func (b *CaptureBuffer) Codes(n int) []monitor.Code {
	if cap(b.codes) < n {
		b.codes = make([]monitor.Code, n)
	}
	b.codes = b.codes[:n]
	return b.codes
}

// CaptureCanonical is Capture followed by Canonical. With a nil buf both
// the scratch and the result are freshly allocated and the caller owns
// the signature. With a non-nil buf the raw (wrap-split) sequence, the
// canonical merge and the returned Signature header all live in the
// buffer: zero steady-state allocations, but the result is only valid
// until the buffer's next capture — campaign workers consume the NDF and
// discard the signature before the next trial, which is exactly that
// contract. Either way the result is bit-identical to
// Capture(...).Canonical().
//
//mclint:hotpath
func CaptureCanonical(classify Classifier, T float64, cfg CaptureConfig, buf *CaptureBuffer) (*Signature, error) {
	raw, err := captureRaw(classify, T, cfg, buf)
	if err != nil {
		return nil, err
	}
	return canonicalFromRaw(raw, T, buf), nil
}

// CaptureCanonicalCodes is CaptureCanonical for the batched pipeline:
// the caller has already classified every master-clock tick
// (codes[k] = code at t = k/ClockHz, len(codes) == cfg.Ticks(T)) and the
// capture hardware model just walks the slice. Buffer semantics match
// CaptureCanonical; codes may alias buf.Codes. The result is
// bit-identical to the scalar CaptureCanonical fed a classifier that
// returns the same per-tick codes.
//
//mclint:hotpath
func CaptureCanonicalCodes(codes []monitor.Code, T float64, cfg CaptureConfig, buf *CaptureBuffer) (*Signature, error) {
	n, err := cfg.Ticks(T)
	if err != nil {
		return nil, err
	}
	if len(codes) != n {
		//mclint:hotalloc cold misuse path; runs once per bad call, never in the trial loop
		return nil, fmt.Errorf("signature: got %d tick codes, capture needs %d", len(codes), n)
	}
	raw, err := walkIntoBuf(codes, T, cfg, buf)
	if err != nil {
		return nil, err
	}
	return canonicalFromRaw(raw, T, buf), nil
}

// walkIntoBuf runs walkCodes with the buffer's raw scratch (writing the
// grown slice back) and maps an empty result to ErrEmpty — the buffer
// bookkeeping shared by the scalar and codes-slice capture paths.
func walkIntoBuf(codes []monitor.Code, T float64, cfg CaptureConfig, buf *CaptureBuffer) ([]Entry, error) {
	var scratch []Entry
	if buf != nil {
		scratch = buf.raw[:0]
	}
	entries := walkCodes(codes, T, cfg, scratch)
	if buf != nil {
		buf.raw = entries
	}
	if len(entries) == 0 {
		return entries, ErrEmpty
	}
	return entries, nil
}

// captureRaw samples the classifier on every master-clock tick into the
// buffer's code scratch and walks the resulting sequence — the capture
// hardware model shared by Capture and CaptureCanonical. The classifier
// is invoked in tick order (k = 0 … n−1), so stateful classifiers (the
// measurement-noise path) draw exactly as they did when the acquisition
// loop was fused.
//
//mclint:hotpath
func captureRaw(classify Classifier, T float64, cfg CaptureConfig, buf *CaptureBuffer) ([]Entry, error) {
	n, err := cfg.Ticks(T)
	if err != nil {
		return nil, err
	}
	var codes []monitor.Code
	if buf != nil {
		codes = buf.Codes(n)
	} else {
		//mclint:hotalloc nil-buf convenience path; the steady-state trial loop always passes a CaptureBuffer
		codes = make([]monitor.Code, n)
	}
	tick := 1 / cfg.ClockHz
	codes[0] = classify(0)
	for k := 1; k < n; k++ {
		codes[k] = classify(float64(k) * tick)
	}
	return walkIntoBuf(codes, T, cfg, buf)
}

// walkCodes runs the Fig. 5 transition detector + m-bit counter over the
// per-tick code sequence, appending raw (wrap-split) entries to scratch.
// A tick that repeats the current code only counts (and resets any
// candidate run), so a run of them is consumed at once: its length is
// added to the counter, which wraps as often as the run carries it past
// the counter's range. Every other tick steps the detector alone.
func walkCodes(codes []monitor.Code, T float64, cfg CaptureConfig, scratch []Entry) []Entry {
	tick := 1 / cfg.ClockHz
	maxCount := cfg.MaxCount()
	stable := uint64(max(cfg.MinStableTicks, 1))
	entries := scratch
	cur := codes[0]
	var count uint64
	var candidate monitor.Code
	var candidateRun uint64
	emit := func(code monitor.Code, counts uint64) {
		if counts == 0 {
			return
		}
		entries = append(entries, Entry{Code: code, Dur: float64(counts) * tick})
	}
	for k := 1; k < len(codes); {
		c := codes[k]
		if c == cur {
			j := k + 1
			for j < len(codes) && codes[j] == cur {
				j++
			}
			for count += uint64(j - k); count > maxCount; count -= maxCount {
				// Counter wrap: hardware latches the max value and restarts.
				emit(cur, maxCount)
			}
			candidateRun = 0
			k = j
			continue
		}
		k++
		count++
		if count > maxCount {
			emit(cur, maxCount)
			count -= maxCount
		}
		if c == candidate {
			candidateRun++
		} else {
			candidate = c
			candidateRun = 1
		}
		if candidateRun >= stable {
			// Accept: the stable run belongs to the new zone.
			run := min(candidateRun, count)
			emit(cur, count-run)
			cur = c
			count = run
			candidateRun = 0
		}
	}
	// Close the period: remaining counts belong to the final code.
	emit(cur, count+1)
	// Normalize total duration to exactly T (rounding of n·tick).
	total := 0.0
	for _, e := range entries {
		total += e.Dur
	}
	if total > 0 && math.Abs(total-T) > 1e-12 {
		scale := T / total
		for i := range entries {
			entries[i].Dur *= scale
		}
	}
	return entries
}

// canonicalFromRaw merges adjacent equal codes of the raw sequence. With
// a nil buf the merge allocates a caller-owned signature (the historical
// Canonical() behaviour); with a buffer both the entries and the header
// are buffer-backed scratch.
func canonicalFromRaw(raw []Entry, T float64, buf *CaptureBuffer) *Signature {
	if buf == nil {
		return (&Signature{Period: T, Entries: raw}).Canonical()
	}
	out := buf.canon[:0]
	for _, e := range raw {
		if n := len(out); n > 0 && out[n-1].Code == e.Code {
			out[n-1].Dur += e.Dur
		} else {
			out = append(out, e)
		}
	}
	buf.canon = out
	buf.sig = Signature{Period: T, Entries: out}
	return &buf.sig
}

// Chronogram samples the signature's code at n uniform instants over the
// period, returning the decimal-coded series of Fig. 7's upper plot. The
// sample times are nondecreasing, so a cursor resolves each lookup in
// amortized O(1) instead of At's per-call entry scan.
func Chronogram(s *Signature, bank *monitor.Bank, n int) (times []float64, decimal []int) {
	times = make([]float64, n)
	decimal = make([]int, n)
	cur := s.Cursor()
	for i := 0; i < n; i++ {
		t := s.Period * float64(i) / float64(n)
		times[i] = t
		decimal[i] = bank.Decimal(cur.At(t))
	}
	return times, decimal
}
