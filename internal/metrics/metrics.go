package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric family types, as exposed in the TYPE line and the JSON form.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing integer count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//mclint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//mclint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value
// reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
//
//mclint:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative deltas decrease the gauge).
//
//mclint:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative-style buckets
// (one counter per upper bound, plus an implicit +Inf bucket) and
// tracks their sum. Buckets are fixed at registration so exposition
// never depends on the observed values.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
//
//mclint:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the holding bucket — the same
// estimate a Prometheus histogram_quantile gives. The +Inf bucket
// clamps to the highest finite bound. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets is the default latency bucket layout, in seconds — wide
// enough for sub-millisecond chunk folds and multi-second campaigns.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// family is one registered metric family: a plain instrument or a
// one-label vec of children.
type family struct {
	name  string
	typ   string
	help  string
	unit  string
	label string // label name; "" for a plain (unlabeled) family

	counter   *Counter
	gauge     *Gauge
	valueFn   func() float64 // scrape-time value of a GaugeFunc or CounterFunc
	histogram *Histogram
	buckets   []float64 // vec histograms stamp children from this

	mu   sync.Mutex
	kids map[string]any // label value -> *Counter | *Histogram
}

// child returns the vec child for a label value, creating it on first
// use.
func (f *family) child(value string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k, ok := f.kids[value]; ok {
		return k
	}
	var k any
	switch f.typ {
	case TypeCounter:
		k = &Counter{}
	case TypeHistogram:
		k = newHistogram(f.buckets)
	default:
		panic("metrics: vec of type " + f.typ)
	}
	f.kids[value] = k
	return k
}

// sortedKids snapshots the children in sorted label order.
func (f *family) sortedKids() ([]string, []any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.kids))
	for k := range f.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]any, len(keys))
	for i, k := range keys {
		vals[i] = f.kids[k]
	}
	return keys, vals
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the counter for a label value, creating it on first
// use. Cache the result on hot paths.
func (v *CounterVec) With(value string) *Counter { return v.f.child(value).(*Counter) }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// With returns the histogram for a label value, creating it on first
// use. Cache the result on hot paths.
func (v *HistogramVec) With(value string) *Histogram { return v.f.child(value).(*Histogram) }

// Registry holds metric families in registration order. Register
// everything at construction time; registration is not safe against
// concurrent scrapes and a duplicate or empty name panics (programmer
// error, caught by the first scrape test).
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) add(f *family) {
	if f.name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic("metrics: duplicate metric " + f.name)
	}
	r.names[f.name] = true
	r.fams = append(r.fams, f)
}

// Counter registers and returns a plain counter.
func (r *Registry) Counter(name, help, unit string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, typ: TypeCounter, help: help, unit: unit, counter: c})
	return c
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, unit, label string) *CounterVec {
	f := &family{name: name, typ: TypeCounter, help: help, unit: unit, label: label, kids: map[string]any{}}
	r.add(f)
	return &CounterVec{f: f}
}

// Gauge registers and returns a plain gauge.
func (r *Registry) Gauge(name, help, unit string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, typ: TypeGauge, help: help, unit: unit, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the hook for values derived from live state (e.g. the fabric's
// worker heartbeat age). fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help, unit string, fn func() float64) {
	r.add(&family{name: name, typ: TypeGauge, help: help, unit: unit, valueFn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time
// from a count the caller keeps (e.g. the fabric's evicted jobs). fn
// must be safe to call concurrently and never decrease.
func (r *Registry) CounterFunc(name, help, unit string, fn func() float64) {
	r.add(&family{name: name, typ: TypeCounter, help: help, unit: unit, valueFn: fn})
}

// Histogram registers a plain fixed-bucket histogram; nil buckets
// selects DefBuckets.
func (r *Registry) Histogram(name, help, unit string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(buckets)
	r.add(&family{name: name, typ: TypeHistogram, help: help, unit: unit, histogram: h})
	return h
}

// HistogramVec registers a histogram family keyed by one label; nil
// buckets selects DefBuckets.
func (r *Registry) HistogramVec(name, help, unit, label string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := &family{name: name, typ: TypeHistogram, help: help, unit: unit, label: label,
		buckets: buckets, kids: map[string]any{}}
	r.add(f)
	return &HistogramVec{f: f}
}

// families snapshots the registration-ordered family list.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.fams))
	copy(out, r.fams)
	return out
}
