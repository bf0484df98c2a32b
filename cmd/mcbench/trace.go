package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer
// around a call to its public functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Trial  int    `json:"trial"` // trial index within its phase, -1 outside a trial
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory; spans are written out only
// when the run has ended.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, trial int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trial: trial, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTotals aggregates a trace by span name.
type layerTotals struct {
	count map[string]int
	dur   map[string]time.Duration // summed span durations
	self  map[string]time.Duration // summed self time: duration minus child spans
}

// totals computes per-name counts, durations and self times. A span's
// children run on the same goroutine inside its interval, so its self
// time is its duration minus the sum of its children's durations.
func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	lt := layerTotals{count: map[string]int{}, dur: map[string]time.Duration{}, self: map[string]time.Duration{}}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		lt.count[s.Name]++
		lt.dur[s.Name] += d
		lt.self[s.Name] += d - child[i]
	}
	return lt
}

// len returns the number of recorded spans.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the spans as JSON lines, one span per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
