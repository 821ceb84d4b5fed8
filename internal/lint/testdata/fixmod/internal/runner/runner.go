// Package runner is a simlint fixture: host-side packages may spawn
// goroutines and range maps, but wall-clock reads still need a reason.
package runner

import (
	"sync/atomic"
	"time"
)

// Fan spawns a goroutine and ranges a map: both legal on the host side.
func Fan(m map[int]int) int {
	done := make(chan int, 1)
	go func() { done <- 1 }()
	n := <-done
	for k := range m {
		n += k
	}
	return n
}

// Stamp reads the wall clock without a justification.
func Stamp() time.Time {
	return time.Now() // want `wall-clock call time\.Now`
}

// StampAllowed reads the wall clock with one.
func StampAllowed() time.Time {
	//simlint:allow determinism fixture: host-side lifecycle stamp
	return time.Now()
}

// width is package-level host state: legal outside sim-core.
var width atomic.Int64

// Width reads it.
func Width() int64 { return width.Load() }
