package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteProm renders the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, vec children in
// sorted label order, so two scrapes of identical state are
// byte-identical. The whole page is assembled in memory and written
// once; the write error is returned.
func (r *Registry) WriteProm(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range r.families() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, promEscapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, promFloat(f.gauge.Value()))
		case f.valueFn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, promFloat(f.valueFn()))
		case f.histogram != nil:
			promHistogram(&b, f.name, "", "", f.histogram)
		default: // vec
			keys, kids := f.sortedKids()
			for i, key := range keys {
				switch k := kids[i].(type) {
				case *Counter:
					fmt.Fprintf(&b, "%s{%s=%q} %d\n", f.name, f.label, key, k.Value())
				case *Histogram:
					promHistogram(&b, f.name, f.label, key, k)
				}
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// promHistogram renders one histogram's cumulative buckets, sum and
// count; label/value add the vec dimension when non-empty.
func promHistogram(b *bytes.Buffer, name, label, value string, h *Histogram) {
	sep := func(le string) string {
		if label == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return fmt.Sprintf(`{%s=%q,le=%q}`, label, value, le)
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = promFloat(h.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, sep(le), cum)
	}
	plain := ""
	if label != "" {
		plain = fmt.Sprintf(`{%s=%q}`, label, value)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, plain, promFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, plain, cum)
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscapeHelp escapes newlines and backslashes in HELP text.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// JSON exposition structures — the machine-friendly variant mcload
// consumes (bucket counts come cumulative, exactly as the text form).
type (
	// JSONSnapshot is the whole registry.
	JSONSnapshot struct {
		Families []JSONFamily `json:"families"`
	}
	// JSONFamily is one metric family.
	JSONFamily struct {
		Name    string       `json:"name"`
		Type    string       `json:"type"`
		Help    string       `json:"help"`
		Unit    string       `json:"unit,omitempty"`
		Label   string       `json:"label,omitempty"`
		Metrics []JSONMetric `json:"metrics"`
	}
	// JSONMetric is one sample (or histogram) of a family.
	JSONMetric struct {
		LabelValue string       `json:"label_value,omitempty"`
		Value      *float64     `json:"value,omitempty"`
		Buckets    []JSONBucket `json:"buckets,omitempty"`
		Sum        *float64     `json:"sum,omitempty"`
		Count      *uint64      `json:"count,omitempty"`
	}
	// JSONBucket is one cumulative histogram bucket.
	JSONBucket struct {
		LE    float64 `json:"le"` // +Inf encodes as the largest finite float
		Count uint64  `json:"count"`
	}
)

// Snapshot captures the registry's current state in its JSON form.
func (r *Registry) Snapshot() JSONSnapshot {
	snap := JSONSnapshot{Families: []JSONFamily{}}
	for _, f := range r.families() {
		jf := JSONFamily{Name: f.name, Type: f.typ, Help: f.help, Unit: f.unit, Label: f.label, Metrics: []JSONMetric{}}
		switch {
		case f.counter != nil:
			jf.Metrics = append(jf.Metrics, scalarMetric("", float64(f.counter.Value())))
		case f.gauge != nil:
			jf.Metrics = append(jf.Metrics, scalarMetric("", f.gauge.Value()))
		case f.valueFn != nil:
			jf.Metrics = append(jf.Metrics, scalarMetric("", f.valueFn()))
		case f.histogram != nil:
			jf.Metrics = append(jf.Metrics, histMetric("", f.histogram))
		default:
			keys, kids := f.sortedKids()
			for i, key := range keys {
				switch k := kids[i].(type) {
				case *Counter:
					jf.Metrics = append(jf.Metrics, scalarMetric(key, float64(k.Value())))
				case *Histogram:
					jf.Metrics = append(jf.Metrics, histMetric(key, k))
				}
			}
		}
		snap.Families = append(snap.Families, jf)
	}
	return snap
}

func scalarMetric(labelValue string, v float64) JSONMetric {
	return JSONMetric{LabelValue: labelValue, Value: &v}
}

func histMetric(labelValue string, h *Histogram) JSONMetric {
	m := JSONMetric{LabelValue: labelValue, Buckets: make([]JSONBucket, 0, len(h.counts))}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.MaxFloat64
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		m.Buckets = append(m.Buckets, JSONBucket{LE: le, Count: cum})
	}
	sum := h.Sum()
	m.Sum = &sum
	m.Count = &cum
	return m
}

// Find returns the named family from a snapshot, or false — the lookup
// mcload's before/after deltas use.
func (s JSONSnapshot) Find(name string) (JSONFamily, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return JSONFamily{}, false
}

// Total sums a family's scalar values across children — the counter
// delta helper.
func (f JSONFamily) Total() float64 {
	var t float64
	for _, m := range f.Metrics {
		if m.Value != nil {
			t += *m.Value
		}
	}
	return t
}

// WriteJSON renders the registry's JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Handler serves the registry at GET /metrics: Prometheus text by
// default, the JSON variant with ?format=json. helpDoc, when non-empty,
// names the human catalogue (docs/METRICS.md) in a leading comment and
// the response headers so a scrape points back at its documentation.
func Handler(r *Registry, helpDoc string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if helpDoc != "" {
			w.Header().Set("X-Metrics-Reference", helpDoc)
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w) // client hang-up mid-scrape has no handler
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if helpDoc != "" {
			_, _ = fmt.Fprintf(w, "# Metric reference: %s\n", helpDoc)
		}
		_ = r.WriteProm(w) // client hang-up mid-scrape has no handler
	})
}
