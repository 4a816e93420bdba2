package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records one span around each call the benchmark makes into a
// layer of the program. Spans are kept in memory and written out when the
// run ends; a nil *tracer records nothing, so untraced runs pay one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call: its layer name, its interval relative to the
// start of the run, the index of the span that caused it (-1 for a root),
// the app or request it served, and the measurement pass it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id"`
	Pass   int    `json:"pass"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, id string, pass int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id, Pass: pass})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// selfTimes returns each closed span's duration minus the part of its
// interval that its children cover (children may overlap one another when
// several request goroutines share a parent).
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.End < 0 {
				continue
			}
			ivs = append(ivs, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// root returns the name of the outermost span above span i.
func (t *tracer) root(i int) string {
	for t.spans[i].Parent >= 0 {
		i = t.spans[i].Parent
	}
	return t.spans[i].Name
}

// layerMS returns, for each span name, the median over passes of that
// layer's summed self time within a pass, in milliseconds. Passes with no
// span of a name do not count towards its median.
func (t *tracer) layerMS() map[string]float64 {
	self := t.selfTimes()
	perPass := make(map[string]map[int]int64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if perPass[s.Name] == nil {
			perPass[s.Name] = make(map[int]int64)
		}
		perPass[s.Name][s.Pass] += self[i]
	}
	out := make(map[string]float64, len(perPass))
	for name, byPass := range perPass {
		var xs []float64
		for _, ns := range byPass {
			xs = append(xs, float64(ns)/1e6)
		}
		out[name] = median(xs)
	}
	return out
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
