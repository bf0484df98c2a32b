package wave

// BatchEvaluator is the optional batch fast path of Waveform: fill
// out[i] = Eval(ts[i]) for every sample in one call. Implementations
// must be bit-identical to calling Eval point by point — the batched
// signature engine relies on that equivalence for its bit-exactness
// guarantee — so they reuse the scalar arithmetic and only hoist the
// per-sample interface dispatch out of the loop.
//
// Stateful waveforms (Noisy, whose every Eval draws a random variate)
// deliberately do not implement BatchEvaluator; the EvalInto fallback
// preserves their draw order exactly.
type BatchEvaluator interface {
	// EvalBatch fills out[i] = Eval(ts[i]); len(out) == len(ts).
	EvalBatch(ts, out []float64)
}

// EvalInto samples w at the given times into out, using the waveform's
// EvalBatch when available and a scalar loop otherwise. The results are
// bit-identical to calling w.Eval(ts[i]) for each i in order. It panics
// when the buffer lengths differ.
//
//mclint:hotpath
func EvalInto(w Waveform, ts, out []float64) {
	if len(ts) != len(out) {
		panic("wave: EvalInto needs len(ts) == len(out)")
	}
	if b, ok := w.(BatchEvaluator); ok {
		b.EvalBatch(ts, out)
		return
	}
	for i, t := range ts {
		out[i] = w.Eval(t)
	}
}

// EvalBatch implements BatchEvaluator.
func (m *Multitone) EvalBatch(ts, out []float64) {
	for i, t := range ts {
		out[i] = m.Eval(t)
	}
}

// EvalBatch implements BatchEvaluator.
func (s *Sampled) EvalBatch(ts, out []float64) {
	for i, t := range ts {
		out[i] = s.Eval(t)
	}
}
