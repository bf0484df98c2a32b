package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/biquad"
	"repro/internal/signature"
	"repro/internal/wave"
)

// failingCUT is a CUT whose output cannot be computed.
type failingCUT struct{ CUT }

func (failingCUT) Output(*wave.Multitone, biquad.Output) (wave.Waveform, error) {
	return nil, errors.New("no output")
}

// TestNDFOfPairScratchMatchesNDFOfScratch pins NDFOfPairScratch to two
// NDFOfScratch calls under math.Float64bits: consecutive pairs of SPICE
// component dies (which run as lock-step pairs) on both observations,
// all on one reused scratch against another; a SPICE die beside an
// analytic one and two analytic dies (which run as two calls); and a
// die whose output fails in either position, which must return the
// single call's error beside the other die's NDF.
func TestNDFOfPairScratchMatchesNDFOfScratch(t *testing.T) {
	newSpice := func(obs Observation) *System {
		sys, err := DefaultSpice()
		if err != nil {
			t.Fatal(err)
		}
		sys.ScanN, sys.Observe = 2048, obs
		return sys
	}
	check := func(name string, sys *System, c0, c1 CUT, sc, ref *TrialScratch) {
		t.Helper()
		v0, v1, err0, err1 := sys.NDFOfPairScratch(c0, c1, sc)
		for lane, got := range []struct {
			c   CUT
			v   float64
			err error
		}{{c0, v0, err0}, {c1, v1, err1}} {
			want, wantErr := sys.NDFOfScratch(got.c, ref)
			if fmt.Sprint(got.err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s lane %d: error %v, NDFOfScratch's %v", name, lane, got.err, wantErr)
			}
			if math.Float64bits(got.v) != math.Float64bits(want) {
				t.Fatalf("%s lane %d: NDF %v, NDFOfScratch %v", name, lane, got.v, want)
			}
		}
	}
	dies := componentDies(8, 0.05)
	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		spiceSys := newSpice(obs)
		sc, ref := NewTrialScratch(), NewTrialScratch()
		for i := 0; i+1 < len(dies); i += 2 {
			c0, err := spiceSys.Deviated(dies[i])
			if err != nil {
				t.Fatal(err)
			}
			c1, err := spiceSys.Deviated(dies[i+1])
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v spice dies %d, %d", obs, i, i+1), spiceSys, c0, c1, sc, ref)
		}
	}
	spiceSys := newSpice(ObserveLP)
	sc, ref := NewTrialScratch(), NewTrialScratch()
	sp, err := spiceSys.Deviated(dies[0])
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := Default().Deviated(dies[1])
	if err != nil {
		t.Fatal(err)
	}
	check("spice beside analytic", spiceSys, sp, analytic, sc, ref)
	check("spice beside failing", spiceSys, sp, failingCUT{sp}, sc, ref)
	check("failing beside spice", spiceSys, failingCUT{sp}, sp, sc, ref)
	sys := Default()
	a0, err := sys.Deviated(dies[2])
	if err != nil {
		t.Fatal(err)
	}
	check("two analytic dies", sys, a0, analytic, sc, ref)
}

// TestSpiceNDFScratchWarmAllocationFree: a warm SPICE die, alone and as
// a pair, allocates nothing — the transient on the scratch's template
// lanes, the scan and the extraction into the scratch's buffers, and
// the NDF.
func TestSpiceNDFScratchWarmAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	sys, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	dies := componentDies(2, 0.02)
	c0, err := sys.Deviated(dies[0])
	if err != nil {
		t.Fatal(err)
	}
	c1, err := sys.Deviated(dies[1])
	if err != nil {
		t.Fatal(err)
	}
	sc := NewTrialScratch()
	var trialErr error
	one := func() {
		if _, err := sys.NDFOfScratch(c0, sc); err != nil {
			trialErr = err
		}
	}
	pair := func() {
		if _, _, err0, err1 := sys.NDFOfPairScratch(c0, c1, sc); err0 != nil || err1 != nil {
			trialErr = errors.Join(err0, err1)
		}
	}
	for name, f := range map[string]func(){"NDFOfScratch": one, "NDFOfPairScratch": pair} {
		f() // warm the lanes and the buffers
		if allocs := testing.AllocsPerRun(5, f); allocs != 0 {
			t.Fatalf("warm SPICE %s allocates %.1f times per call, want 0", name, allocs)
		}
		if trialErr != nil {
			t.Fatal(trialErr)
		}
	}
}

// TestExactSignatureAllocationBound: a one-shot exact signature of the
// golden CUT, its output included, allocates at most 4 KB per call over
// 200 calls. The scan keeps its transitions, not a code per scan point,
// and the system keeps no time grid; a scan-code buffer alone took
// 41 KB a call.
func TestExactSignatureAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	sys := Default()
	if _, err := sys.ExactSignature(sys.CUT); err != nil {
		t.Fatal(err) // build the zone LUT and the scan's stimulus samples
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := sys.ExactSignature(sys.CUT); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / calls; per > 4096 {
		t.Fatalf("one-shot ExactSignature allocates %.0f B per call, want at most 4096", per)
	}
}

// TestGoldenSignatureOwnsItsEntries: the cached golden signature and an
// ExactSignature share no memory with a trial scratch and keep no spare
// capacity, and a later trial on a scratch leaves them as they were.
func TestGoldenSignatureOwnsItsEntries(t *testing.T) {
	sys, err := DefaultSpice()
	if err != nil {
		t.Fatal(err)
	}
	sys.ScanN = 2048
	g, err := sys.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.Shifted(0.1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.ExactSignature(c)
	if err != nil {
		t.Fatal(err)
	}
	before := []*signature.Signature{clone(g), clone(e)}
	sc := NewTrialScratch()
	for i, d := range componentDies(3, 0.05) {
		cut, err := sys.Deviated(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NDFOfScratch(cut, sc); err != nil {
			t.Fatal(err)
		}
		for k, sig := range []*signature.Signature{g, e} {
			if cap(sig.Entries) != len(sig.Entries) {
				t.Fatalf("signature %d: %d entries with capacity %d", k, len(sig.Entries), cap(sig.Entries))
			}
			equalSigs(t, fmt.Sprintf("signature %d after trial %d", k, i), sig, before[k])
		}
	}
}

// clone copies a signature.
func clone(s *signature.Signature) *signature.Signature {
	return &signature.Signature{Period: s.Period, Entries: append([]signature.Entry(nil), s.Entries...)}
}
