package signature

import (
	"math"
	"testing"

	"repro/internal/monitor"
	"repro/internal/rng"
)

// walkCodesPerTick is the per-tick transition detector walkCodes
// replaced, kept as its oracle: every tick counts, wraps the counter
// and steps the candidate logic on its own.
func walkCodesPerTick(codes []monitor.Code, T float64, cfg CaptureConfig, scratch []Entry) []Entry {
	tick := 1 / cfg.ClockHz
	maxCount := cfg.MaxCount()
	stable := cfg.MinStableTicks
	if stable < 1 {
		stable = 1
	}
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
	for k := 1; k < len(codes); k++ {
		count++
		if count > maxCount {
			emit(cur, maxCount)
			count -= maxCount
		}
		c := codes[k]
		switch {
		case c == cur:
			candidateRun = 0
		case c == candidate:
			candidateRun++
		default:
			candidate = c
			candidateRun = 1
		}
		if candidateRun >= uint64(stable) {
			run := candidateRun
			if run > count {
				run = count
			}
			emit(cur, count-run)
			cur = c
			count = run
			candidateRun = 0
		}
	}
	emit(cur, count+1)
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

// TestWalkCodesMatchesPerTick: on 3000 random code sequences — zone
// runs of random length with chatter at rates up to 50 %, counters of
// 1 to 16 bits (so long dwells wrap, narrow counters many times) and
// deglitch depths 0 to 3 — walkCodes emits exactly the per-tick
// detector's entries, code for code and duration bit for bit.
func TestWalkCodesMatchesPerTick(t *testing.T) {
	src := rng.New(2026)
	for trial := 0; trial < 3000; trial++ {
		n := 2 + int(src.Float64()*3000)
		chatter := 0.5 * src.Float64()
		zones := 1 + int(src.Float64()*6)
		codes := make([]monitor.Code, n)
		zone := monitor.Code(0)
		for k := range codes {
			if src.Float64() < 0.01 {
				zone = monitor.Code(src.Float64() * float64(zones))
			}
			codes[k] = zone
			if src.Float64() < chatter {
				codes[k] = monitor.Code(src.Float64() * float64(zones))
			}
		}
		cfg := CaptureConfig{
			ClockHz:        1e7,
			CounterBits:    1 + int(src.Float64()*16),
			MinStableTicks: int(src.Float64() * 4),
		}
		T := float64(n) / cfg.ClockHz
		want := walkCodesPerTick(codes, T, cfg, nil)
		got := walkCodes(codes, T, cfg, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%+v, n %d, chatter %.2f): %d entries, per-tick %d", trial, cfg, n, chatter, len(got), len(want))
		}
		for i := range want {
			if got[i].Code != want[i].Code || math.Float64bits(got[i].Dur) != math.Float64bits(want[i].Dur) {
				t.Fatalf("trial %d (%+v): entry %d %v, per-tick %v", trial, cfg, i, got[i], want[i])
			}
		}
	}
}
