package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Top-level spans (parent -1) are units: one set-up step, one
// engine construction, or one pass of a scan path over a kernel's streams.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Kernel int32  `json:"kernel"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally. Engine factories
// run on the scan drivers' worker goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	call  int32 // the open scan call; factory spans nest under it
}

func newTracer() *tracer { return &tracer{t0: time.Now(), call: -1} }

func (t *tracer) start(name string, parent int32, kernel int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Kernel: int32(kernel), Start: int64(time.Since(t.t0)), End: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
}

// startCall opens a scan call span that factory spans started before
// endCall attach to.
func (t *tracer) startCall(name string, parent int32, kernel int) int32 {
	id := t.start(name, parent, kernel)
	if t != nil {
		t.mu.Lock()
		t.call = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) endCall(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.call = -1
	t.mu.Unlock()
}

func (t *tracer) openCall() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.call
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unitKey names a measure of one unit: the spans called name inside it
// (or the unit itself), taken as total duration, self time (duration
// minus the time its children cover), the time children cover, or a count.
type unitKey struct {
	unit, name string
	kernel     int32
	mode       string // "dur", "self", "covered", "count"
}

// units folds the spans into per-unit measures: for each unit occurrence,
// one value per (descendant name, mode).
func (t *tracer) units() map[unitKey][]float64 {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := map[unitKey][]float64{}
	for i, u := range t.spans {
		if u.Parent >= 0 || u.End < 0 {
			continue
		}
		acc := map[unitKey]float64{}
		var walk func(id int32)
		walk = func(id int32) {
			s := t.spans[id]
			dur := float64(s.End-s.Start) / 1e9
			cov := covered(t.spans, children[id], s.Start, s.End)
			key := unitKey{unit: u.Name, name: s.Name, kernel: u.Kernel}
			for mode, v := range map[string]float64{"dur": dur, "self": dur - cov, "covered": cov, "count": 1} {
				key.mode = mode
				acc[key] += v
			}
			for _, c := range children[id] {
				walk(c)
			}
		}
		walk(int32(i))
		for k, v := range acc {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// covered returns the seconds of [lo, hi) that at least one of the spans
// ids covers; overlapping children on parallel workers count once.
func covered(spans []span, ids []int32, lo, hi int64) float64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		s := spans[id]
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return float64(total) / 1e9
}
