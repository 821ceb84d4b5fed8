package cache_test

import (
	"testing"

	"spp1000/internal/cache"
	"spp1000/internal/topology"
)

// BenchmarkCacheAccess measures one lookup on the architectural 1 MB
// geometry: a 16K-line working set (half the cache) that hits once
// warm, with every 16th access displacing a line from a conflicting
// address and every 8th a write, so hits, dirty evictions and refills
// all appear. Steady state must report 0 allocs/op.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i % 16384)
		if i%16 == 0 {
			line += topology.CacheLines
		}
		c.Access(topology.LineKey{Space: 1, Line: line}, i%8 == 0)
	}
}
