package sim

import (
	"runtime"
	"testing"
)

// runMallocs spawns a ticker that delays one cycle n times and reports
// the heap allocations its whole Run makes. The Proc is spawned before
// the first reading, so only the event loop itself is measured: pop →
// clock advance → resumeProc → Delay → atProc push, n times over, then
// the Proc's exit and the final accounting.
func runMallocs(t *testing.T, n int) uint64 {
	t.Helper()
	k := NewKernel()
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
	var before, after runtime.MemStats
	runtime.GC() // finish any cycle in flight so its workers stay out of the window
	runtime.ReadMemStats(&before)
	err := k.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if k.Now() != Cycles(n) || k.Live() != 0 {
		t.Fatalf("ticker ended at %v with %d live procs, want %d and 0", k.Now(), k.Live(), n)
	}
	return after.Mallocs - before.Mallocs
}

// fewestMallocs is the smallest runMallocs figure over three Runs: the
// runtime's own background goroutines (the scavenger's timer, a GC
// worker) occasionally allocate inside the window, and the minimum
// filters that out without hiding a per-event allocation, which would
// show in every Run.
func fewestMallocs(t *testing.T, n int) uint64 {
	least := runMallocs(t, n)
	for i := 0; i < 2; i++ {
		least = min(least, runMallocs(t, n))
	}
	return least
}

// TestKernelFastPathZeroAllocsPerEvent pins the event loop's allocation
// contract: the direct-resume cycle allocates nothing per event, so a
// whole Run of a 2^20-event ticker allocates exactly as much as one of
// a 2^16-event ticker. The same property is enforced statically by
// simlint's allocfree analyzer over the //simlint:hotpath annotations
// in kernel.go and proc.go; this test is the dynamic witness, so a
// regression that sneaks past escape analysis (e.g. via the runtime
// rather than the compiler) still fails.
//
// One P keeps the scheduler from starting OS threads mid-run (each new
// M allocates), and a warm-up Run absorbs the runtime's one-time lazy
// allocations, so the only allocations left to count are the kernel's.
func TestKernelFastPathZeroAllocsPerEvent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runMallocs(t, 1<<16)
	small := fewestMallocs(t, 1<<16)
	large := fewestMallocs(t, 1<<20)
	if large != small {
		t.Errorf("Run allocated %d objects for 2^16 events but %d for 2^20; the event loop allocates per event", small, large)
	}
}
