// Package signature implements the paper's digital signature (Eq. 1):
// the sequence of (zone code Z_i, dwell time Δ_i) pairs produced while
// the CUT's Lissajous composition traverses the monitored plane, plus the
// asynchronous capture hardware of Fig. 5 (transition detector, master
// clock, m-bit time counter) and serialization for off-chip readout.
package signature

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/monitor"
)

// Entry is one signature element: a zone code and its dwell time.
type Entry struct {
	Code monitor.Code
	Dur  float64 // seconds
}

// Signature is the full periodic signature {(Z_1, Δ_1) … (Z_k, Δ_k)}.
type Signature struct {
	Entries []Entry
	Period  float64 // the Lissajous period T the entries cover
}

// Classifier maps a time instant to a zone code — in the real system the
// monitor bank observing (x(t), y(t)).
type Classifier func(t float64) monitor.Code

// ErrEmpty is returned for operations on empty signatures.
var ErrEmpty = errors.New("signature: empty signature")

// Validate checks structural invariants: a positive, finite period,
// positive, finite durations summing to it within 1e-6·Period, and no
// adjacent duplicate codes.
func (s *Signature) Validate() error {
	if len(s.Entries) == 0 {
		return ErrEmpty
	}
	if !(s.Period > 0) || math.IsInf(s.Period, 1) {
		return fmt.Errorf("signature: period %g must be positive and finite", s.Period)
	}
	sum := 0.0
	for i, e := range s.Entries {
		if !(e.Dur > 0) || math.IsInf(e.Dur, 1) {
			return fmt.Errorf("signature: entry %d has duration %g, want positive and finite", i, e.Dur)
		}
		if i > 0 && e.Code == s.Entries[i-1].Code {
			return fmt.Errorf("signature: entries %d and %d share code %d", i-1, i, e.Code)
		}
		sum += e.Dur
	}
	if math.Abs(sum-s.Period) > 1e-6*s.Period {
		return fmt.Errorf("signature: durations sum to %g, period is %g", sum, s.Period)
	}
	return nil
}

// At returns the zone code at time t (t is wrapped into [0, Period)).
func (s *Signature) At(t float64) monitor.Code {
	if len(s.Entries) == 0 {
		return 0
	}
	t = math.Mod(t, s.Period)
	if t < 0 {
		t += s.Period
	}
	acc := 0.0
	for _, e := range s.Entries {
		acc += e.Dur
		if t < acc {
			return e.Code
		}
	}
	return s.Entries[len(s.Entries)-1].Code
}

// Cursor resolves At-style code lookups against a signature with a
// cumulative-time position, answering nondecreasing query sequences —
// the chronogram and sampled-NDF loops — in amortized O(1) instead of
// At's O(entries) scan per call. Queries that move backwards in time
// rewind the cursor and stay correct, just slower. Results are identical
// to Signature.At for every t (the cumulative sums are accumulated in
// the same order). A Cursor must not outlive mutations of the signature
// and is not safe for concurrent use.
type Cursor struct {
	sig        *Signature
	idx        int
	begin, end float64 // current entry's [begin, end) window
}

// Cursor returns a lookup cursor positioned at the first entry.
func (s *Signature) Cursor() Cursor {
	c := Cursor{sig: s}
	c.rewind()
	return c
}

// rewind repositions the cursor at the first entry.
func (c *Cursor) rewind() {
	c.idx, c.begin, c.end = 0, 0, 0
	if len(c.sig.Entries) > 0 {
		c.end = c.sig.Entries[0].Dur
	}
}

// At returns the zone code at time t (wrapped into [0, Period)), exactly
// as Signature.At does.
func (c *Cursor) At(t float64) monitor.Code {
	s := c.sig
	if len(s.Entries) == 0 {
		return 0
	}
	t = math.Mod(t, s.Period)
	if t < 0 {
		t += s.Period
	}
	if t < c.begin {
		c.rewind()
	}
	for t >= c.end && c.idx < len(s.Entries)-1 {
		c.idx++
		c.begin = c.end
		c.end += s.Entries[c.idx].Dur
	}
	return s.Entries[c.idx].Code
}

// NumZones returns the number of entries (zones traversed, with
// revisits counted each time).
func (s *Signature) NumZones() int { return len(s.Entries) }

// Canonical merges adjacent equal codes (which quantized capture can
// produce after counter wrap splitting) and rotates the entry list so it
// begins with the entry active at t = 0⁺. It returns a new signature.
func (s *Signature) Canonical() *Signature {
	out := &Signature{Period: s.Period}
	for _, e := range s.Entries {
		if n := len(out.Entries); n > 0 && out.Entries[n-1].Code == e.Code {
			out.Entries[n-1].Dur += e.Dur
		} else {
			out.Entries = append(out.Entries, e)
		}
	}
	// If first and last codes match, the traversal wrapped mid-zone;
	// keep them separate (period boundary is a legitimate cut point).
	return out
}

// String renders the signature like the paper's notation.
func (s *Signature) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, e := range s.Entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %.3gus)", e.Code, e.Dur*1e6)
	}
	b.WriteString("}")
	return b.String()
}

// Exact extracts the ideal (unquantized) signature of a classifier over
// one period T: it scans with nScan samples and refines every transition
// instant by bisection to tol seconds. It is the reference the clocked
// capture is tested against.
func Exact(classify Classifier, T float64, nScan int, tol float64) (*Signature, error) {
	if T <= 0 {
		return nil, fmt.Errorf("signature: period %g must be positive", T)
	}
	if nScan < 2 {
		return nil, fmt.Errorf("signature: need at least 2 scan points")
	}
	codes := make([]monitor.Code, nScan+1)
	for i := 0; i <= nScan; i++ {
		codes[i] = classify(T * float64(i) / float64(nScan))
	}
	return ExactFromCodes(codes, classify, T, tol)
}

// ExactFromCodes is Exact for the batched pipeline: the scan grid has
// already been classified (codes[i] = code at T·i/nScan for
// i = 0 … nScan, so len(codes) = nScan+1) and only the transition
// brackets found on the grid are refined by bisection with classify.
// classify may be any classifier that agrees with the grid codes; the
// result is bit-identical to Exact with that classifier. The batched
// engine bisects through the same zone LUT that classified the grid
// (monitor.Bank.ClassifyLUT), which answers every instant exactly as
// the scalar classifier does.
func ExactFromCodes(codes []monitor.Code, classify Classifier, T float64, tol float64) (*Signature, error) {
	nScan := len(codes) - 1
	if T <= 0 {
		return nil, fmt.Errorf("signature: period %g must be positive", T)
	}
	if nScan < 2 {
		return nil, fmt.Errorf("signature: need at least 2 scan points")
	}
	if tol <= 0 {
		tol = T * 1e-9
	}
	type edge struct {
		t    float64
		code monitor.Code // code after the transition
	}
	var edges []edge
	prev := codes[0]
	first := prev
	tPrev := 0.0
	for i := 1; i <= nScan; i++ {
		t := T * float64(i) / float64(nScan)
		c := codes[i]
		if c != prev {
			// Refine transition in (tPrev, t]. Note multiple transitions
			// inside one scan step are merged — nScan must be chosen
			// fine enough (callers use ≥ 4096 for the paper's curves).
			lo, hi := tPrev, t
			for hi-lo > tol {
				mid := 0.5 * (lo + hi)
				if classify(mid) == prev {
					lo = mid
				} else {
					hi = mid
				}
			}
			edges = append(edges, edge{t: hi, code: classify(hi)})
			prev = c
		}
		tPrev = t
	}
	sig := &Signature{Period: T}
	if len(edges) == 0 {
		sig.Entries = []Entry{{Code: first, Dur: T}}
		return sig, nil
	}
	// Build entries: from t=0 to first edge is the first code, etc.
	tCur := 0.0
	codeCur := first
	for _, e := range edges {
		if e.t > tCur {
			sig.Entries = append(sig.Entries, Entry{Code: codeCur, Dur: e.t - tCur})
		}
		tCur = e.t
		codeCur = e.code
	}
	if T > tCur {
		sig.Entries = append(sig.Entries, Entry{Code: codeCur, Dur: T - tCur})
	}
	return sig.Canonical(), nil
}

const magic = 0x53494731 // "SIG1"

// MarshalBinary implements encoding.BinaryMarshaler: a compact readout
// format (magic, period, entry count, then code/duration pairs).
func (s *Signature) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(uint32(magic))
	w(s.Period)
	w(uint32(len(s.Entries)))
	for _, e := range s.Entries {
		w(uint32(e.Code))
		w(e.Dur)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Signature) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var m uint32
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := rd(&m); err != nil {
		return fmt.Errorf("signature: truncated header: %w", err)
	}
	if m != magic {
		return fmt.Errorf("signature: bad magic %#x", m)
	}
	var period float64
	var n uint32
	if err := rd(&period); err != nil {
		return err
	}
	// Reject non-finite and non-positive periods: NaN in particular
	// would silently break the round-trip contract (NaN never compares
	// equal) and every downstream duration normalization.
	if !(period > 0) || math.IsInf(period, 0) {
		return fmt.Errorf("signature: invalid period %v", period)
	}
	if err := rd(&n); err != nil {
		return err
	}
	if n > 1<<20 {
		return fmt.Errorf("signature: implausible entry count %d", n)
	}
	entries := make([]Entry, n)
	for i := range entries {
		var code uint32
		var dur float64
		if err := rd(&code); err != nil {
			return err
		}
		if err := rd(&dur); err != nil {
			return err
		}
		if math.IsNaN(dur) || math.IsInf(dur, 0) || dur < 0 {
			return fmt.Errorf("signature: invalid duration %v at entry %d", dur, i)
		}
		entries[i] = Entry{Code: monitor.Code(code), Dur: dur}
	}
	s.Period = period
	s.Entries = entries
	return nil
}

// MarshalJSON renders the signature as a readable JSON document with
// durations in seconds — the interchange format for tooling that does
// not speak the binary readout.
func (s *Signature) MarshalJSON() ([]byte, error) {
	type entry struct {
		Code uint32  `json:"code"`
		Dur  float64 `json:"dur_s"`
	}
	doc := struct {
		Period  float64 `json:"period_s"`
		Entries []entry `json:"entries"`
	}{Period: s.Period}
	for _, e := range s.Entries {
		doc.Entries = append(doc.Entries, entry{Code: uint32(e.Code), Dur: e.Dur})
	}
	return json.Marshal(doc)
}

// UnmarshalJSON parses the MarshalJSON format.
func (s *Signature) UnmarshalJSON(data []byte) error {
	var doc struct {
		Period  float64 `json:"period_s"`
		Entries []struct {
			Code uint32  `json:"code"`
			Dur  float64 `json:"dur_s"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("signature: %w", err)
	}
	s.Period = doc.Period
	s.Entries = s.Entries[:0]
	for _, e := range doc.Entries {
		s.Entries = append(s.Entries, Entry{Code: monitor.Code(e.Code), Dur: e.Dur})
	}
	return nil
}
