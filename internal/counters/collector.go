//simlint:allow-file determinism merging is commutative and Snapshot sorts, so map iteration order cannot reach any output

package counters

import "sync"

// Collector is a mutex-guarded aggregation sink: many machines (running
// concurrently on host worker goroutines) publish their per-machine
// Registry deltas into it, and the merged totals are snapshotted for
// rendering or export. Merging is commutative (counts and histogram
// moments add; max takes the larger), so the merged snapshot is
// byte-identical regardless of host scheduling — the property the
// counter determinism test enforces across -par settings.
type Collector struct {
	mu     sync.Mutex
	groups map[string]*collGroup
}

type collGroup struct {
	counters map[string]int64
	hists    map[string]HistogramValue
}

// NewCollector returns an empty sink.
func NewCollector() *Collector {
	return &Collector{groups: make(map[string]*collGroup)}
}

// merge folds one group's delta into the collector. Caller holds c.mu.
func (c *Collector) merge(group string, counters map[string]int64, hists map[string]HistogramValue) {
	g, ok := c.groups[group]
	if !ok {
		g = &collGroup{counters: make(map[string]int64), hists: make(map[string]HistogramValue)}
		c.groups[group] = g
	}
	for name, v := range counters {
		g.counters[name] += v
	}
	for name, hv := range hists {
		cur := g.hists[name]
		cur.merge(hv)
		g.hists[name] = cur
	}
}

// Merge folds a previously taken Snapshot into the collector — the
// restore half of checkpointing: a resumed run seeds its collector with
// the checkpoint's counter snapshot, and because merging is commutative
// the final totals equal an uninterrupted run's exactly.
func (c *Collector) Merge(s Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, gs := range s.Groups {
		var counters map[string]int64
		if len(gs.Counters) > 0 {
			counters = make(map[string]int64, len(gs.Counters))
			for _, cv := range gs.Counters {
				counters[cv.Name] = cv.Value
			}
		}
		var hists map[string]HistogramValue
		if len(gs.Histograms) > 0 {
			hists = make(map[string]HistogramValue, len(gs.Histograms))
			for _, hv := range gs.Histograms {
				hists[hv.Name] = hv
			}
		}
		c.merge(gs.Name, counters, hists)
	}
}

// Snapshot copies the merged totals, deterministically sorted.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Snapshot
	for name, g := range c.groups {
		gs := GroupSnapshot{Name: name}
		for cn, v := range g.counters {
			gs.Counters = append(gs.Counters, CounterValue{Name: cn, Value: v})
		}
		for hn, hv := range g.hists {
			hv.Name = hn
			gs.Histograms = append(gs.Histograms, hv)
		}
		s.Groups = append(s.Groups, gs)
	}
	s.sort()
	return s
}

// Publish folds the registry's not-yet-published deltas into every
// sink (each non-nil). Each counter remembers what it has published, so
// repeated Publish calls (a machine Run multiple times) never
// double-count. With no sink (a run with no counter sink) nothing is
// published and the registry's deltas stay pending. The registry
// belongs to one machine, so only the sinks are locked.
func Publish(r *Registry, sinks ...*Collector) {
	if r == nil || len(sinks) == 0 {
		return
	}
	for name, g := range r.groups {
		var dc map[string]int64
		for cn, ctr := range g.counters {
			if d := ctr.v - ctr.flushed; d != 0 {
				if dc == nil {
					dc = make(map[string]int64)
				}
				dc[cn] = d
				ctr.flushed = ctr.v
			}
		}
		var dh map[string]HistogramValue
		for hn, h := range g.hists {
			d := HistogramValue{
				Count: h.cur.Count - h.flushed.Count,
				Sum:   h.cur.Sum - h.flushed.Sum,
				Max:   h.cur.Max, // max is monotonic; merge takes the larger
			}
			for i := range d.Buckets {
				d.Buckets[i] = h.cur.Buckets[i] - h.flushed.Buckets[i]
			}
			if d.Count != 0 {
				if dh == nil {
					dh = make(map[string]HistogramValue)
				}
				dh[hn] = d
				h.flushed = h.cur
			}
		}
		if dc == nil && dh == nil {
			continue
		}
		for _, c := range sinks {
			c.mu.Lock()
			c.merge(name, dc, dh)
			c.mu.Unlock()
		}
	}
}
