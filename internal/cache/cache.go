// Package cache models the external direct-mapped data cache of one
// HP PA-RISC 7100: 1 MB, 32-byte lines (paper §2.2). Only presence and
// dirtiness are tracked — data values live in the application, which is
// what makes whole-program simulation tractable.
package cache

import (
	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

// state of one cache slot.
type slot struct {
	valid bool
	dirty bool
	key   topology.LineKey
}

// Stats counts cache events for the CXpa-style instrumentation.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Writebacks    int64
	Invalidations int64
}

// hooks are the optional PMU-style counter handles. All nil (free
// no-ops) until AttachCounters; they mirror the Stats fields so either
// instrumentation view can be read.
type hooks struct {
	hits          *counters.Counter
	misses        *counters.Counter
	evictions     *counters.Counter
	writebacks    *counters.Counter
	invalidations *counters.Counter
}

// pageSlots is the slot count of one lazily allocated page (256 slots,
// 6 KB). A page is allocated the first time Access fills a slot on it,
// so building a machine zeroes only the page table, not 1 MB caches
// whose lines a sweep point never touches; an absent page holds only
// invalid slots.
const pageSlots = 256

// Cache is one processor's data cache.
type Cache struct {
	pages []*[pageSlots]slot // nil until a slot on the page is filled
	lines int
	Stats Stats
	ctr   hooks
}

// AttachCounters mirrors this cache's event stream into the group's
// counters (hits, misses, evictions, writebacks, invalidations).
// Several caches may share one group — their counts aggregate. A nil
// group detaches (handles become free no-ops again).
func (c *Cache) AttachCounters(g *counters.Group) {
	c.ctr = hooks{
		hits:          g.Counter("hits"),
		misses:        g.Counter("misses"),
		evictions:     g.Counter("evictions"),
		writebacks:    g.Counter("writebacks"),
		invalidations: g.Counter("invalidations"),
	}
}

// New returns an empty cache with the architectural geometry.
func New() *Cache { return NewWithLines(topology.CacheLines) }

// NewWithLines returns an empty cache with a custom number of line slots
// (for tests and for scaled-down capacity experiments).
func NewWithLines(lines int) *Cache {
	if lines <= 0 {
		lines = 1
	}
	return &Cache{
		pages: make([]*[pageSlots]slot, (lines+pageSlots-1)/pageSlots),
		lines: lines,
	}
}

func (c *Cache) index(key topology.LineKey) int {
	// Direct mapping: line index modulo the slot count. Distinct spaces
	// are offset so that two objects do not systematically collide.
	return int((key.Line + uint64(key.Space)*7919) % uint64(c.lines))
}

// lookup returns the slot holding the line, or nil when it is not
// cached (an absent page holds nothing). It never allocates.
func (c *Cache) lookup(key topology.LineKey) *slot {
	i := uint(c.index(key))
	p := c.pages[i/pageSlots]
	if p == nil {
		return nil
	}
	if s := &p[i%pageSlots]; s.valid && s.key == key {
		return s
	}
	return nil
}

// fillPage allocates page n on its first fill. Kept out of line so the
// one allocation of a page's lifetime stays off the Access hot path.
//
//go:noinline
func (c *Cache) fillPage(n uint) *[pageSlots]slot {
	p := new([pageSlots]slot)
	c.pages[n] = p
	return p
}

// Result describes the outcome of a lookup.
type Result struct {
	Hit bool
	// WritebackNeeded is set when the access evicted a dirty line.
	WritebackNeeded bool
	// Evicted is the line displaced by a miss fill, if any.
	Evicted     topology.LineKey
	HadEviction bool
}

// Access touches the line, filling it on a miss. write marks it dirty.
//
//simlint:hotpath
func (c *Cache) Access(key topology.LineKey, write bool) Result {
	i := uint(c.index(key))
	p := c.pages[i/pageSlots]
	if p == nil {
		p = c.fillPage(i / pageSlots)
	}
	s := &p[i%pageSlots]
	if s.valid && s.key == key {
		c.Stats.Hits++
		c.ctr.hits.Inc()
		if write {
			s.dirty = true
		}
		return Result{Hit: true}
	}
	c.Stats.Misses++
	c.ctr.misses.Inc()
	res := Result{}
	if s.valid {
		c.Stats.Evictions++
		c.ctr.evictions.Inc()
		res.HadEviction = true
		res.Evicted = s.key
		if s.dirty {
			c.Stats.Writebacks++
			c.ctr.writebacks.Inc()
			res.WritebackNeeded = true
		}
	}
	s.valid = true
	s.dirty = write
	s.key = key
	return res
}

// Contains reports whether the line is currently cached.
//
//simlint:hotpath
func (c *Cache) Contains(key topology.LineKey) bool {
	return c.lookup(key) != nil
}

// Dirty reports whether the line is cached dirty.
func (c *Cache) Dirty(key topology.LineKey) bool {
	s := c.lookup(key)
	return s != nil && s.dirty
}

// Invalidate drops the line (a coherence action from the directory).
// It reports whether a copy was present and whether it was dirty.
//
//simlint:hotpath
func (c *Cache) Invalidate(key topology.LineKey) (present, dirty bool) {
	if s := c.lookup(key); s != nil {
		c.Stats.Invalidations++
		c.ctr.invalidations.Inc()
		present, dirty = true, s.dirty
		s.valid = false
		s.dirty = false
	}
	return present, dirty
}

// Clean marks a cached line clean (after a writeback / downgrade).
func (c *Cache) Clean(key topology.LineKey) {
	if s := c.lookup(key); s != nil {
		s.dirty = false
	}
}

// Lines reports the slot count.
func (c *Cache) Lines() int { return c.lines }
