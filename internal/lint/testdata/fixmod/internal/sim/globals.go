package sim

import (
	"sync"
	"sync/atomic"
)

// Package-level locks and atomics are state every run in the process
// shares, so sim-core flags them.
var (
	sinksMu sync.Mutex     // want `package-level sync\.Mutex in sim-core`
	nsinks  atomic.Int32   // want `package-level atomic\.Int32 in sim-core`
	once    = &sync.Once{} // want `package-level sync\.Once in sim-core`
)

// total carries the escape hatch with its reason.
//
//simlint:allow determinism fixture: process-wide total read by one exact-count guard
var total atomic.Int64

// Totals keeps its atomics in a value each run owns: no finding.
type Totals struct {
	cycles atomic.Int64
}

// Add folds into a caller-owned total; locals are not package state.
func (t *Totals) Add(n int64) {
	var mu sync.Mutex
	mu.Lock()
	t.cycles.Add(n)
	mu.Unlock()
	_, _, _, _ = &sinksMu, &nsinks, once, &total
}
