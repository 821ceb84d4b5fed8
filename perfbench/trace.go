package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the calls it makes. Spans of one request share ReqID: the job key for
// a service operation, the pass index for a simulator pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // "<layer>.<call>"
	ReqID  string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, ReqID: req, Start: now})
	return len(t.spans)
}

// end closes span id; a non-empty req replaces its request id (a job
// key is known only once the submit has been answered).
func (t *tracer) end(id int, req string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if req != "" {
		s.ReqID = req
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// finished returns the closed spans with request ids inherited down
// from their roots.
func (t *tracer) finished() []span {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range all {
		if all[i].ReqID == "" && all[i].Parent != 0 {
			all[i].ReqID = all[all[i].Parent-1].ReqID // parents precede children
		}
	}
	out := all[:0]
	for _, s := range all {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums each layer's self time in seconds: a span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
// Children of one span may overlap when they run on parallel workers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.finished() {
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

// reportSelfTimes records trace.self_s.<layer> for every layer.
func reportSelfTimes(r *report, t *tracer) {
	self := selfTimes(t.finished())
	for _, l := range selfTimeLayers {
		r.set("trace.self_s."+l, self[l])
	}
}
