package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newTestRegistry builds a registry exercising every family kind.
func newTestRegistry() (*Registry, *Counter, *Gauge, *Histogram, *CounterVec, *HistogramVec) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Total operations.", "1")
	g := r.Gauge("test_inflight", "Operations in flight.", "1")
	h := r.Histogram("test_latency_seconds", "Operation latency.", "seconds", []float64{0.1, 1, 10})
	cv := r.CounterVec("test_requests_total", "Requests by route.", "1", "route")
	hv := r.HistogramVec("test_route_seconds", "Route latency.", "seconds", "route", []float64{0.5, 5})
	r.GaugeFunc("test_age_seconds", "Scrape-time computed age.", "seconds", func() float64 { return 42.5 })
	r.CounterFunc("test_dropped_total", "Scrape-time read count.", "1", func() float64 { return 3 })
	return r, c, g, h, cv, hv
}

func TestCounterGaugeHistogram(t *testing.T) {
	_, c, g, h, _, _ := newTestRegistry()
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	for _, v := range []float64{0.05, 0.5, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-103.05) > 1e-12 {
		t.Fatalf("histogram sum = %v, want 103.05", got)
	}
	// Buckets are cumulative: le=0.1 -> 1, le=1 -> 3, le=10 -> 4, +Inf -> 5.
	var b bytes.Buffer
	r2 := NewRegistry()
	h2 := r2.Histogram("h", "h", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 2, 100} {
		h2.Observe(v)
	}
	if err := r2.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`h_bucket{le="0.1"} 1`, `h_bucket{le="1"} 3`, `h_bucket{le="10"} 4`, `h_bucket{le="+Inf"} 5`,
		`h_count 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prom output missing %q:\n%s", want, b.String())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", "", []float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations uniform in (0, 4]: quantiles interpolate.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if got := h.Quantile(0.5); math.Abs(got-2) > 0.2 {
		t.Fatalf("p50 = %v, want ~2", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("p100 = %v, want 4 (holding bucket bound)", got)
	}
	// Values beyond the last bound clamp to it.
	h2 := NewRegistry().Histogram("h2", "h", "", []float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}
}

func TestVecChildrenSortedAndStable(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("reqs", "r", "1", "route")
	cv.With("/z").Add(1)
	cv.With("/a").Add(2)
	cv.With("/m").Add(3)
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia, im, iz := strings.Index(out, `route="/a"`), strings.Index(out, `route="/m"`), strings.Index(out, `route="/z"`)
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("vec children not in sorted label order:\n%s", out)
	}
	if cv.With("/a") != cv.With("/a") {
		t.Fatal("With returned different children for one label")
	}
}

// TestScrapeDeterminism pins the exposition contract: two scrapes of
// identical state are byte-identical, in both formats, with families in
// registration order.
func TestScrapeDeterminism(t *testing.T) {
	r, c, g, h, cv, hv := newTestRegistry()
	c.Add(7)
	g.Set(2)
	h.Observe(0.3)
	cv.With("/v1/jobs").Inc()
	cv.With("/metrics").Inc()
	hv.With("/v1/jobs").Observe(1.2)

	var a1, a2, j1, j2 bytes.Buffer
	if err := r.WriteProm(&a1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&a2); err != nil {
		t.Fatal(err)
	}
	if a1.String() != a2.String() {
		t.Fatalf("two text scrapes differ:\n%s\n----\n%s", a1.String(), a2.String())
	}
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatalf("two JSON scrapes differ")
	}
	// Families appear in registration order.
	order := []string{"test_ops_total", "test_inflight", "test_latency_seconds",
		"test_requests_total", "test_route_seconds", "test_age_seconds", "test_dropped_total"}
	last := -1
	for _, name := range order {
		i := strings.Index(a1.String(), "# TYPE "+name+" ")
		if i < 0 {
			t.Fatalf("family %s missing from scrape", name)
		}
		if i < last {
			t.Fatalf("family %s out of registration order", name)
		}
		last = i
	}
	var snap JSONSnapshot
	if err := json.Unmarshal(j1.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for i, name := range order {
		if snap.Families[i].Name != name {
			t.Fatalf("JSON family[%d] = %s, want %s", i, snap.Families[i].Name, name)
		}
	}
	if f, ok := snap.Find("test_ops_total"); !ok || f.Total() != 7 {
		t.Fatalf("Find/Total = %v, want 7", f.Total())
	}
	if f, ok := snap.Find("test_dropped_total"); !ok || f.Type != TypeCounter || f.Total() != 3 {
		t.Fatalf("CounterFunc family %+v, want a counter reading 3", f)
	}
	if !strings.Contains(a1.String(), "# TYPE test_dropped_total counter\ntest_dropped_total 3\n") {
		t.Fatalf("CounterFunc family not exposed as a counter:\n%s", a1.String())
	}
}

func TestHandlerFormats(t *testing.T) {
	r, c, _, _, _, _ := newTestRegistry()
	c.Inc()
	h := Handler(r, "docs/METRICS.md")

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "test_ops_total 1") {
		t.Fatalf("text scrape: code %d body %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "docs/METRICS.md") {
		t.Fatal("text scrape does not reference docs/METRICS.md")
	}
	if got := rec.Header().Get("X-Metrics-Reference"); got != "docs/METRICS.md" {
		t.Fatalf("X-Metrics-Reference = %q", got)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var snap JSONSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON scrape undecodable: %v", err)
	}
	if _, ok := snap.Find("test_ops_total"); !ok {
		t.Fatal("JSON scrape missing test_ops_total")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "d", "1")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "d", "1")
}

// TestConcurrentUpdates runs every instrument under the race detector.
func TestConcurrentUpdates(t *testing.T) {
	r, c, g, h, cv, hv := newTestRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := "/r" + string(rune('a'+w%3))
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 0.001)
				cv.With(route).Inc()
				hv.With(route).Observe(0.2)
			}
		}(w)
	}
	scrapes := make(chan struct{})
	go func() {
		defer close(scrapes)
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			if err := r.WriteProm(&b); err != nil {
				t.Errorf("scrape under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-scrapes
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := g.Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
}

// TestHotPathAllocationFree pins the hotalloc contract at runtime: the
// increments campaign hot loops may touch allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c", "1")
	g := r.Gauge("g", "g", "1")
	h := r.Histogram("h", "h", "s", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Errorf("Counter Inc/Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(0.5) }); n != 0 {
		t.Errorf("Gauge Set/Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.42) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}
