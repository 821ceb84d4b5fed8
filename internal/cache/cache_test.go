package cache

import (
	"testing"
	"testing/quick"

	"spp1000/internal/rng"
	"spp1000/internal/topology"
)

func key(space uint32, line uint64) topology.LineKey {
	return topology.LineKey{Space: topology.Space(space), Line: line}
}

func TestMissThenHit(t *testing.T) {
	c := New()
	if r := c.Access(key(1, 10), false); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(key(1, 10), false); !r.Hit {
		t.Fatal("second access should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New()
	c.Access(key(1, 10), true)
	if !c.Dirty(key(1, 10)) {
		t.Fatal("written line should be dirty")
	}
	c.Clean(key(1, 10))
	if c.Dirty(key(1, 10)) {
		t.Fatal("cleaned line should not be dirty")
	}
}

func TestConflictEvictionWithWriteback(t *testing.T) {
	c := NewWithLines(4)
	c.Access(key(1, 0), true)       // dirty
	r := c.Access(key(1, 4), false) // same slot (4 % 4 == 0)
	if r.Hit {
		t.Fatal("conflicting line should miss")
	}
	if !r.HadEviction || !r.WritebackNeeded {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if r.Evicted != key(1, 0) {
		t.Fatalf("evicted %+v, want line 0", r.Evicted)
	}
	if c.Contains(key(1, 0)) {
		t.Fatal("evicted line should be gone")
	}
}

func TestDistinctSpacesDoNotAlias(t *testing.T) {
	c := New()
	c.Access(key(1, 10), false)
	if c.Contains(key(2, 10)) {
		t.Fatal("same line in a different space must be distinct")
	}
}

func TestInvalidate(t *testing.T) {
	c := New()
	c.Access(key(1, 10), true)
	present, dirty := c.Invalidate(key(1, 10))
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(key(1, 10)) {
		t.Fatal("line should be gone after invalidate")
	}
	present, _ = c.Invalidate(key(1, 10))
	if present {
		t.Fatal("second invalidate should find nothing")
	}
	if c.Stats.Invalidations != 1 {
		t.Fatalf("invalidation count = %d, want 1", c.Stats.Invalidations)
	}
}

func TestGeometry(t *testing.T) {
	c := New()
	if c.Lines() != topology.CacheLines {
		t.Fatalf("default cache has %d lines, want %d", c.Lines(), topology.CacheLines)
	}
	if topology.CacheLines != 32768 {
		t.Fatalf("1 MB / 32 B = 32768 lines, constant says %d", topology.CacheLines)
	}
	if NewWithLines(0).Lines() != 1 {
		t.Fatal("degenerate geometry should clamp to one line")
	}
}

// Property: after Access(k), Contains(k) is true and a subsequent access
// hits; invalidating makes it miss again.
func TestAccessInvalidateProperty(t *testing.T) {
	prop := func(space uint16, line uint32, write bool) bool {
		c := NewWithLines(64)
		k := key(uint32(space), uint64(line))
		c.Access(k, write)
		if !c.Contains(k) {
			return false
		}
		if r := c.Access(k, false); !r.Hit {
			return false
		}
		if c.Dirty(k) != write {
			return false
		}
		c.Invalidate(k)
		if c.Contains(k) {
			return false
		}
		return !c.Access(k, false).Hit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: hit+miss counts always equal total accesses.
func TestStatsBalanceProperty(t *testing.T) {
	prop := func(lines []uint8) bool {
		c := NewWithLines(8)
		for _, l := range lines {
			c.Access(key(0, uint64(l)), l%2 == 0)
		}
		return c.Stats.Hits+c.Stats.Misses == int64(len(lines))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// denseRef is the reference model for the paged layout: the original
// dense direct-mapped cache, one slot per line allocated up front.
type denseRef struct {
	slots   []slot
	stats   Stats
	touched map[int]bool // pages a fill has reached
}

func (d *denseRef) idx(key topology.LineKey) int {
	return int((key.Line + uint64(key.Space)*7919) % uint64(len(d.slots)))
}

func (d *denseRef) at(key topology.LineKey) *slot { return &d.slots[d.idx(key)] }

func (d *denseRef) access(key topology.LineKey, write bool) Result {
	s := d.at(key)
	if s.valid && s.key == key {
		d.stats.Hits++
		s.dirty = s.dirty || write
		return Result{Hit: true}
	}
	d.stats.Misses++
	var r Result
	if s.valid {
		d.stats.Evictions++
		r.HadEviction, r.Evicted = true, s.key
		if s.dirty {
			d.stats.Writebacks++
			r.WritebackNeeded = true
		}
	}
	*s = slot{valid: true, dirty: write, key: key}
	d.touched[d.idx(key)/pageSlots] = true
	return r
}

func (d *denseRef) invalidate(key topology.LineKey) (present, dirty bool) {
	s := d.at(key)
	if !s.valid || s.key != key {
		return false, false
	}
	d.stats.Invalidations++
	present, dirty = true, s.dirty
	s.valid, s.dirty = false, false
	return present, dirty
}

func (d *denseRef) clean(key topology.LineKey) {
	if s := d.at(key); s.valid && s.key == key {
		s.dirty = false
	}
}

// Property: the lazily paged cache is observationally identical to the
// dense reference under random Access/Invalidate/Clean/Contains/Dirty
// streams — same Results, Stats and final slot contents — at geometries
// covering the clamp to one line, sub-page, partial-last-page and
// architectural sizes. Reads never allocate a page: exactly the pages
// some fill reached are present.
func TestPagedMatchesDenseProperty(t *testing.T) {
	for _, lines := range []int{0, 1, 4, 255, 257, 4096, topology.CacheLines} {
		for seed := uint64(1); seed <= 3; seed++ {
			c := NewWithLines(lines)
			n := c.Lines()
			ref := &denseRef{slots: make([]slot, n), touched: map[int]bool{}}
			r := rng.New(seed*1000 + uint64(lines))
			span := 2*n + 17 // enough lines to force conflict evictions
			// Reads on a cold cache find nothing and allocate nothing.
			for l := 0; l < span; l++ {
				k := key(uint32(seed), uint64(l))
				c.Clean(k)
				if c.Contains(k) || c.Dirty(k) {
					t.Fatalf("lines=%d: cold cache holds %v", lines, k)
				}
				if present, _ := c.Invalidate(k); present {
					t.Fatalf("lines=%d: cold cache invalidated %v", lines, k)
				}
			}
			for pg, p := range c.pages {
				if p != nil {
					t.Fatalf("lines=%d: reads on a cold cache allocated page %d", lines, pg)
				}
			}
			for op := 0; op < 3000; op++ {
				k := key(uint32(r.Intn(3)), uint64(r.Intn(span)))
				switch r.Intn(5) {
				case 0, 1:
					write := r.Intn(2) == 0
					if got, want := c.Access(k, write), ref.access(k, write); got != want {
						t.Fatalf("lines=%d seed=%d op=%d Access(%v,%v) = %+v, want %+v", lines, seed, op, k, write, got, want)
					}
				case 2:
					gp, gd := c.Invalidate(k)
					wp, wd := ref.invalidate(k)
					if gp != wp || gd != wd {
						t.Fatalf("lines=%d seed=%d op=%d Invalidate(%v) = (%v,%v), want (%v,%v)", lines, seed, op, k, gp, gd, wp, wd)
					}
				case 3:
					c.Clean(k)
					ref.clean(k)
				case 4:
					s := ref.at(k)
					if c.Contains(k) != (s.valid && s.key == k) || c.Dirty(k) != (s.valid && s.key == k && s.dirty) {
						t.Fatalf("lines=%d seed=%d op=%d presence of %v disagrees with reference %+v", lines, seed, op, k, *s)
					}
				}
			}
			if c.Stats != ref.stats {
				t.Fatalf("lines=%d seed=%d stats = %+v, want %+v", lines, seed, c.Stats, ref.stats)
			}
			for pg, p := range c.pages {
				if (p != nil) != ref.touched[pg] {
					t.Fatalf("lines=%d seed=%d page %d allocated=%v, filled=%v", lines, seed, pg, p != nil, ref.touched[pg])
				}
			}
			for i := 0; i < len(c.pages)*pageSlots; i++ {
				var got, want slot
				if p := c.pages[i/pageSlots]; p != nil {
					got = p[i%pageSlots]
				}
				if i < n {
					want = ref.slots[i]
				}
				if got != want {
					t.Fatalf("lines=%d seed=%d slot %d = %+v, want %+v", lines, seed, i, got, want)
				}
			}
		}
	}
}
