package signature

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/monitor"
	"repro/internal/rng"
)

// exactFromCodesOracle is ExactFromCodes as it was before it stopped
// recomputing known values: it forms t = T·i/nScan at every scan point
// and calls classify(hi) once more after each bisection.
func exactFromCodesOracle(codes []monitor.Code, classify Classifier, T float64, tol float64) (*Signature, error) {
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
		code monitor.Code
	}
	var edges []edge
	prev := codes[0]
	first := prev
	tPrev := 0.0
	for i := 1; i <= nScan; i++ {
		t := T * float64(i) / float64(nScan)
		c := codes[i]
		if c != prev {
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

// TestExactFromCodesMatchesOracle runs ExactFromCodes and its oracle on
// random piecewise-constant classifiers (up to 40 code changes a
// period, several sometimes inside one scan step, at random instants,
// scan sizes and tolerances) with the grid codes they give. The
// signatures must agree bit for bit, and ExactFromCodes must call the
// classifier exactly once less per transition on the grid. Its result
// must have no spare capacity, and ExactFromTransitions on the grid's
// transitions, with one buffer reused across all trials, must give the
// same entries.
func TestExactFromCodesMatchesOracle(t *testing.T) {
	src := rng.New(2231)
	total := 0
	var buf CaptureBuffer
	for trial := 0; trial < 400; trial++ {
		T := math.Ldexp(0.5+src.Float64(), -10+int(20*src.Float64()))
		nScan := 2 + int(src.Float64()*300)
		cuts := make([]float64, int(src.Float64()*41))
		for k := range cuts {
			cuts[k] = T * src.Float64()
		}
		sort.Float64s(cuts)
		seg := make([]monitor.Code, len(cuts)+1)
		for k := range seg {
			seg[k] = monitor.Code(src.Float64() * 5)
		}
		tol := 0.0
		if trial%3 == 1 {
			tol = T * math.Ldexp(1, -int(4+20*src.Float64()))
		}
		calls := 0
		classify := func(t float64) monitor.Code {
			calls++
			return seg[sort.SearchFloat64s(cuts, t)]
		}
		codes := make([]monitor.Code, nScan+1)
		transitions := 0
		for i := range codes {
			codes[i] = classify(T * float64(i) / float64(nScan))
			if i > 0 && codes[i] != codes[i-1] {
				transitions++
			}
		}
		total += transitions
		calls = 0
		want, err := exactFromCodesOracle(codes, classify, T, tol)
		if err != nil {
			t.Fatal(err)
		}
		oracleCalls := calls
		calls = 0
		got, err := ExactFromCodes(codes, classify, T, tol)
		if err != nil {
			t.Fatal(err)
		}
		if calls != oracleCalls-transitions {
			t.Fatalf("trial %d: %d classifier calls, oracle %d for %d transitions", trial, calls, oracleCalls, transitions)
		}
		if cap(got.Entries) != len(got.Entries) {
			t.Fatalf("trial %d: %d entries with capacity %d", trial, len(got.Entries), cap(got.Entries))
		}
		into, err := ExactFromTransitions(codes[0], transitionsOf(codes), nScan, classify, T, tol, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, sig := range []*Signature{got, into} {
			if math.Float64bits(sig.Period) != math.Float64bits(want.Period) || len(sig.Entries) != len(want.Entries) {
				t.Fatalf("trial %d: got %v, oracle %v", trial, sig, want)
			}
			for k, e := range sig.Entries {
				if w := want.Entries[k]; e.Code != w.Code || math.Float64bits(e.Dur) != math.Float64bits(w.Dur) {
					t.Fatalf("trial %d, entry %d: got %+v, oracle %+v", trial, k, e, w)
				}
			}
		}
	}
	if total < 1000 {
		t.Fatalf("%d transitions over all trials, want at least 1000", total)
	}
}

// transitionsOf returns the transitions of a scan's per-point codes:
// every point whose code differs from the point before.
func transitionsOf(codes []monitor.Code) []Transition {
	var trans []Transition
	for i := 1; i < len(codes); i++ {
		if codes[i] != codes[i-1] {
			trans = append(trans, Transition{At: i, Code: codes[i]})
		}
	}
	return trans
}

// TestExactFromTransitionsWarmAllocationFree pins a warm buffer-backed
// refinement at zero allocations.
func TestExactFromTransitionsWarmAllocationFree(t *testing.T) {
	codes := make([]monitor.Code, 1025)
	for i := range codes {
		codes[i] = monitor.Code(i / 100 % 3)
	}
	trans := transitionsOf(codes)
	classify := func(t float64) monitor.Code { return monitor.Code(int(t*1024) / 100 % 3) }
	var buf CaptureBuffer
	if _, err := ExactFromTransitions(codes[0], trans, 1024, classify, 1, 0, &buf); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := ExactFromTransitions(codes[0], trans, 1024, classify, 1, 0, &buf); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Fatalf("warm ExactFromTransitions allocates %.1f times per run, want 0", a)
	}
}
