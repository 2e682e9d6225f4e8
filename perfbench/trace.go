package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; nothing inside the program is instrumented.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Op     string  `json:"op,omitempty"` // point or request the call served
	Start  float64 `json:"start_s"`      // since the recorder was made
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. When it is off,
// do only runs the call: the untraced run pays one branch per call.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// do runs fn as a span of layer under parent (0 for a root span) and
// returns its wall time in seconds. fn receives the span's ID so the
// calls it makes can name it as their parent.
func (r *recorder) do(parent int, layer, name, op string, fn func(id int)) float64 {
	if !r.on {
		start := time.Now()
		fn(0)
		return time.Since(start).Seconds()
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Op: op})
	r.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	r.mu.Lock()
	r.spans[id-1].Start = start.Sub(r.t0).Seconds()
	r.spans[id-1].End = end.Sub(r.t0).Seconds()
	r.mu.Unlock()
	return end.Sub(start).Seconds()
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each interval that child spans cover. Children of
// one span may overlap (concurrent requests), so coverage is the union
// of their intervals.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		self[s.Layer] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, cur := 0.0, lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// report adds the per-layer self times to metrics.
func (r *recorder) report(metrics map[string]float64) {
	for layer, s := range r.selfTimes() {
		metrics["trace.self_s."+layer] = s
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// overheadRatio estimates the share of measuredS the recorder added: the
// spans recorded so far times the extra cost of one recorded span over an
// unrecorded call, calibrated here on empty calls.
func (r *recorder) overheadRatio(measuredS float64) float64 {
	const calls = 20000
	cost := func(on bool) float64 {
		c := &recorder{on: on, t0: time.Now()}
		start := time.Now()
		for i := 0; i < calls; i++ {
			c.do(0, "calibrate", "call", "", func(int) {})
		}
		return time.Since(start).Seconds() / calls
	}
	extra := max(cost(true)-cost(false), 0)
	r.mu.Lock()
	n := len(r.spans)
	r.mu.Unlock()
	return float64(n) * extra / measuredS
}
