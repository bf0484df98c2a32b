package signature

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/biquad"
	"repro/internal/monitor"
	"repro/internal/wave"
)

// stepClassifier yields code changes at fixed fractions of the period.
func stepClassifier(T float64) Classifier {
	return func(t float64) monitor.Code {
		frac := math.Mod(t, T) / T
		switch {
		case frac < 0.25:
			return 0
		case frac < 0.5:
			return 1
		case frac < 0.9:
			return 3
		default:
			return 2
		}
	}
}

func TestExactKnownTransitions(t *testing.T) {
	T := 1e-3
	sig, err := Exact(stepClassifier(T), T, 4096, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if err := sig.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sig.Entries) != 4 {
		t.Fatalf("entries = %d, want 4: %v", len(sig.Entries), sig)
	}
	wantCodes := []monitor.Code{0, 1, 3, 2}
	wantDurs := []float64{0.25e-3, 0.25e-3, 0.4e-3, 0.1e-3}
	for i, e := range sig.Entries {
		if e.Code != wantCodes[i] {
			t.Fatalf("entry %d code = %d, want %d", i, e.Code, wantCodes[i])
		}
		if math.Abs(e.Dur-wantDurs[i]) > 1e-9 {
			t.Fatalf("entry %d dur = %v, want %v", i, e.Dur, wantDurs[i])
		}
	}
}

func TestExactConstantClassifier(t *testing.T) {
	sig, err := Exact(func(float64) monitor.Code { return 7 }, 1e-3, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Entries) != 1 || sig.Entries[0].Code != 7 {
		t.Fatalf("constant classifier signature = %v", sig)
	}
	if math.Abs(sig.Entries[0].Dur-1e-3) > 1e-15 {
		t.Fatal("constant dwell must equal the period")
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := Exact(stepClassifier(1), 0, 100, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := Exact(stepClassifier(1), 1, 1, 0); err == nil {
		t.Fatal("single scan point accepted")
	}
}

func TestAtLookup(t *testing.T) {
	T := 1e-3
	sig, _ := Exact(stepClassifier(T), T, 4096, 1e-12)
	cases := []struct {
		t    float64
		want monitor.Code
	}{
		{0.1e-3, 0}, {0.3e-3, 1}, {0.7e-3, 3}, {0.95e-3, 2},
		{1.1e-3, 0},   // wraps
		{-0.05e-3, 2}, // negative wraps to 0.95e-3
	}
	for _, c := range cases {
		if got := sig.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &Signature{Period: 1, Entries: []Entry{{0, 0.5}, {1, 0.5}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Signature{Period: 1, Entries: []Entry{{0, 0.5}, {0, 0.5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("adjacent duplicate accepted")
	}
	bad2 := &Signature{Period: 1, Entries: []Entry{{0, 0.4}, {1, 0.4}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("duration shortfall accepted")
	}
	bad3 := &Signature{Period: 1, Entries: []Entry{{0, -0.5}, {1, 1.5}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []*Signature{
		{Period: nan, Entries: []Entry{{0, nan}}},
		{Period: inf, Entries: []Entry{{0, inf}}},
		{Period: 1, Entries: []Entry{{0, 0.5}, {1, nan}}},
	} {
		if err := s.Validate(); err == nil {
			t.Fatalf("non-finite signature %+v accepted", *s)
		}
	}
	empty := &Signature{Period: 1}
	if err := empty.Validate(); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestCaptureMatchesExact(t *testing.T) {
	T := 200e-6
	cls := stepClassifier(T)
	exact, err := Exact(cls, T, 8192, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCapture()
	cap, err := Capture(cls, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cap.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cap.Entries) != len(exact.Entries) {
		t.Fatalf("captured %d entries vs exact %d", len(cap.Entries), len(exact.Entries))
	}
	tick := 1 / cfg.ClockHz
	for i := range cap.Entries {
		if cap.Entries[i].Code != exact.Entries[i].Code {
			t.Fatalf("entry %d code mismatch", i)
		}
		if math.Abs(cap.Entries[i].Dur-exact.Entries[i].Dur) > 2*tick {
			t.Fatalf("entry %d dur %v vs exact %v beyond clock quantization",
				i, cap.Entries[i].Dur, exact.Entries[i].Dur)
		}
	}
}

func TestCaptureCounterWrap(t *testing.T) {
	// 8-bit counter, 10 MHz clock: max dwell 25.5 µs. A 100 µs dwell in
	// one zone must be split and then merged by Canonical.
	T := 200e-6
	cls := func(t float64) monitor.Code {
		if math.Mod(t, T) < 100e-6 {
			return 0
		}
		return 1
	}
	cfg := CaptureConfig{ClockHz: 10e6, CounterBits: 8}
	cap, err := Capture(cls, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Raw capture has wrap splits -> more than 2 entries.
	if len(cap.Entries) <= 2 {
		t.Fatalf("expected wrap splits, got %d entries", len(cap.Entries))
	}
	merged := cap.Canonical()
	if len(merged.Entries) != 2 {
		t.Fatalf("canonical entries = %d, want 2", len(merged.Entries))
	}
	for _, e := range merged.Entries {
		if math.Abs(e.Dur-100e-6) > 1e-6 {
			t.Fatalf("merged dwell = %v, want ~100 µs", e.Dur)
		}
	}
}

func TestCaptureValidation(t *testing.T) {
	cls := stepClassifier(1)
	if _, err := Capture(cls, 1, CaptureConfig{ClockHz: 0, CounterBits: 8}); err == nil {
		t.Fatal("zero clock accepted")
	}
	if _, err := Capture(cls, 1, CaptureConfig{ClockHz: 1e6, CounterBits: 0}); err == nil {
		t.Fatal("zero-bit counter accepted")
	}
	if _, err := Capture(cls, 0, DefaultCapture()); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := Capture(cls, 1e-9, CaptureConfig{ClockHz: 1e6, CounterBits: 8}); err == nil {
		t.Fatal("sub-tick period accepted")
	}
}

// TestCaptureConfigRefusesUncapturableClocks: a clock that is NaN or
// +Inf fails validation, and a capture whose tick count an int cannot
// hold fails as too long, not as a period too short for its clock.
// Tick counts up to just below 2^63 are accepted.
func TestCaptureConfigRefusesUncapturableClocks(t *testing.T) {
	const T = 200e-6
	for _, clock := range []float64{math.NaN(), math.Inf(1)} {
		cfg := CaptureConfig{ClockHz: clock, CounterBits: 16}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("clock %g: Validate error %v, want a finite-clock error", clock, err)
		}
		if _, err := cfg.Ticks(T); err == nil {
			t.Errorf("clock %g: Ticks accepted it", clock)
		}
	}
	if n, err := (CaptureConfig{ClockHz: 1e20, CounterBits: 16}).Ticks(T); err != nil || math.Abs(float64(n)-2e16) > 8 {
		t.Errorf("clock 1e20: Ticks = %d, %v, want about 2e16 ticks", n, err)
	}
	for _, c := range []struct{ T, clock float64 }{{T, 1e30}, {1, 0x1p63}, {math.Inf(1), 1e6}} {
		_, err := CaptureConfig{ClockHz: c.clock, CounterBits: 16}.Ticks(c.T)
		if err == nil || !strings.Contains(err.Error(), "too long") {
			t.Errorf("period %g clock %g: Ticks error %v, want a too-long capture", c.T, c.clock, err)
		}
	}
	if n, err := (CaptureConfig{ClockHz: 0x1p62, CounterBits: 16}).Ticks(1); err != nil || n != 1<<62 {
		t.Errorf("2^62 ticks: Ticks = %d, %v", n, err)
	}
	if _, err := (CaptureConfig{ClockHz: 1e6, CounterBits: 16}).Ticks(math.NaN()); err == nil {
		t.Error("NaN period accepted")
	}
}

func TestCaptureDurationsSumToPeriod(t *testing.T) {
	T := 200e-6
	cap, err := Capture(stepClassifier(T), T, DefaultCapture())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range cap.Entries {
		sum += e.Dur
	}
	if math.Abs(sum-T) > 1e-12 {
		t.Fatalf("durations sum to %v, want %v", sum, T)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	T := 1e-3
	sig, _ := Exact(stepClassifier(T), T, 4096, 1e-12)
	data, err := sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Signature
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Period != sig.Period || len(back.Entries) != len(sig.Entries) {
		t.Fatal("round trip lost structure")
	}
	for i := range back.Entries {
		if back.Entries[i] != sig.Entries[i] {
			t.Fatalf("entry %d changed in round trip", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var s Signature
	if err := s.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated data accepted")
	}
	if err := s.UnmarshalBinary([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestStringRendering(t *testing.T) {
	sig := &Signature{Period: 1e-3, Entries: []Entry{{4, 0.5e-3}, {5, 0.5e-3}}}
	if s := sig.String(); s == "" || s[0] != '{' {
		t.Fatalf("String = %q", s)
	}
}

// Paper pipeline: the golden biquad signature through the Table I bank.
func paperSignature(t *testing.T, f0Shift float64) (*Signature, *monitor.Bank) {
	t.Helper()
	in, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	f, err := biquad.New(biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}.WithF0Shift(f0Shift))
	if err != nil {
		t.Fatal(err)
	}
	out := f.SteadyState(in)
	bank := monitor.NewAnalyticTableI()
	cls := func(tt float64) monitor.Code {
		return bank.Classify(in.Eval(tt), out.Eval(tt))
	}
	sig, err := Exact(cls, in.Period(), 8192, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	return sig, bank
}

func TestPaperGoldenSignatureShape(t *testing.T) {
	sig, _ := paperSignature(t, 0)
	if err := sig.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 6/7: the golden curve traverses on the order of 10-20 zone
	// intervals per period.
	if n := sig.NumZones(); n < 6 || n > 60 {
		t.Fatalf("golden signature has %d intervals, implausible vs paper", n)
	}
	if math.Abs(sig.Period-200e-6) > 1e-12 {
		t.Fatalf("period = %v, want 200 µs", sig.Period)
	}
}

func TestPaperDefectiveSignatureDiffers(t *testing.T) {
	golden, _ := paperSignature(t, 0)
	defective, _ := paperSignature(t, 0.10)
	// The +10% signature must differ somewhere.
	same := golden.NumZones() == defective.NumZones()
	if same {
		for i := range golden.Entries {
			if golden.Entries[i].Code != defective.Entries[i].Code ||
				math.Abs(golden.Entries[i].Dur-defective.Entries[i].Dur) > 1e-7 {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("defective signature identical to golden")
	}
}

func TestChronogramShape(t *testing.T) {
	sig, bank := paperSignature(t, 0)
	times, dec := Chronogram(sig, bank, 400)
	if len(times) != 400 || len(dec) != 400 {
		t.Fatal("chronogram size wrong")
	}
	changes := 0
	for i := 1; i < len(dec); i++ {
		if dec[i] != dec[i-1] {
			changes++
		}
		if dec[i] < 0 || dec[i] > 63 {
			t.Fatalf("decimal code %d out of 6-bit range", dec[i])
		}
	}
	if changes < 5 {
		t.Fatalf("chronogram nearly constant (%d changes)", changes)
	}
}

// Property: Capture + Canonical always yields durations summing to the
// period and never two adjacent equal codes, for random step patterns.
func TestCaptureInvariantProperty(t *testing.T) {
	prop := func(seed uint8) bool {
		T := 100e-6
		k := 2 + int(seed%5)
		cls := func(t float64) monitor.Code {
			frac := math.Mod(t, T) / T
			return monitor.Code(int(frac*float64(k)) % k)
		}
		cap, err := Capture(cls, T, CaptureConfig{ClockHz: 5e6, CounterBits: 12})
		if err != nil {
			return false
		}
		can := cap.Canonical()
		sum := 0.0
		for i, e := range can.Entries {
			sum += e.Dur
			if i > 0 && can.Entries[i-1].Code == e.Code {
				return false
			}
		}
		return math.Abs(sum-T) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	T := 1e-3
	sig, _ := Exact(stepClassifier(T), T, 4096, 1e-12)
	data, err := json.Marshal(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "period_s") {
		t.Fatalf("JSON missing fields: %s", data)
	}
	var back Signature
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Period != sig.Period || len(back.Entries) != len(sig.Entries) {
		t.Fatal("JSON round trip lost structure")
	}
	for i := range back.Entries {
		if back.Entries[i] != sig.Entries[i] {
			t.Fatalf("entry %d changed", i)
		}
	}
	if err := (&Signature{}).UnmarshalJSON([]byte("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
