package sim

import (
	"fmt"
	"sync/atomic"
)

// totalCycles accumulates the virtual cycles advanced by every kernel in
// the process, folded in by Account (never on the per-event hot path).
// Per-run attribution never reads it: each run's totals live in its own
// machine.Env, which Machine.Run folds from Account's return values.
// The process-wide sum stays only for perfbench's exact-count guard,
// which measures a whole pass that nothing else overlaps.
//
//simlint:allow determinism process-wide totals read only by perfbench's inprocPass exact-count guard; runs attribute through machine.Env
var totalCycles atomic.Int64

// totalEvents accumulates the events executed by every kernel in the
// process, folded in alongside totalCycles (see Account).
//
//simlint:allow determinism process-wide totals read only by perfbench's inprocPass exact-count guard; runs attribute through machine.Env
var totalEvents atomic.Int64

// TotalCycles reports the simulated cycles executed by all kernels in
// this process so far. Monotonic; safe for concurrent use. It is not a
// per-run figure: concurrent runs all add to it.
func TotalCycles() int64 { return totalCycles.Load() }

// TotalEvents reports the events executed by all kernels in this process
// so far, folded in by Account like TotalCycles. Monotonic; safe for
// concurrent use. It is not a per-run figure.
func TotalEvents() int64 { return totalEvents.Load() }

// event is a callback scheduled at a virtual time. Events with equal
// timestamps fire in the order they were scheduled (seq breaks ties),
// which makes the simulation deterministic.
//
// The common case by far is a pure timed wake-up of a parked Proc
// (Delay, synchronization releases). Those carry the Proc directly in
// proc and leave fn nil: the kernel hands the baton straight to the
// goroutine with no closure allocated and no intermediate call.
type event struct {
	at   Cycles
	seq  int64
	proc *Proc  // fast path: resume this Proc directly
	fn   func() // general callback, used when proc is nil
}

// eventHeap is a concrete-typed binary min-heap ordered by (at, seq).
// It deliberately does not implement container/heap: the interface{}
// boxing there costs two heap allocations per event (one on Push, one
// on Pop), which at hundreds of millions of simulated events dominates
// the host profile. Pop order is a pure function of the (at, seq) keys
// — which are totally ordered, seq being unique — so replacing the heap
// implementation cannot change the event schedule.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//simlint:hotpath
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

//simlint:hotpath
func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = event{} // drop fn/proc references so they can be collected
	*h = old[:n]
	if n > 1 {
		h.down(0)
	}
	return e
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Kernel is a discrete-event simulator: a virtual clock plus an ordered
// event queue. It owns a set of Procs (simulated threads); exactly one
// goroutine — the kernel's or one Proc's — executes at any moment.
type Kernel struct {
	now    Cycles
	seq    int64
	events eventHeap

	// handshake with the currently-running Proc
	yield chan struct{} // Proc -> Kernel: I have parked (or exited)

	live int // Procs spawned and not yet finished

	eventsDone int64 // events executed by this kernel

	accounted       Cycles // cycles already returned by Account
	eventsAccounted int64  // events already returned by Account

	deadlock func() string // optional extra diagnostics on deadlock
}

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Cycles { return k.now }

// Live reports how many Procs have been spawned and not yet finished.
func (k *Kernel) Live() int { return k.live }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is an error in the caller; it is clamped to "now" to keep the
// clock monotonic.
func (k *Kernel) At(t Cycles, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// atProc schedules a direct resumption of p at absolute time t — the
// timed-wake-up fast path. Equivalent to At(t, func() { resumeProc(p) })
// but with no closure allocation and no indirect call in the event loop.
//
//simlint:hotpath
func (k *Kernel) atProc(t Cycles, p *Proc) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, proc: p})
}

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Cycles, fn func()) { k.At(k.now+d, fn) }

// OnDeadlock registers a diagnostics callback invoked if the simulation
// deadlocks (procs still live but no events pending).
func (k *Kernel) OnDeadlock(fn func() string) { k.deadlock = fn }

// Run executes events in timestamp order until the queue is empty.
// It returns an error if Procs remain alive with nothing scheduled —
// a deadlock in the simulated program. The failure message is built in
// deadlockError, off the hot path, so the loop itself stays free of
// heap escapes.
//
//simlint:hotpath
func (k *Kernel) Run() error {
	for len(k.events) > 0 {
		e := k.events.pop()
		k.now = e.at
		k.eventsDone++
		if e.proc != nil {
			k.resumeProc(e.proc)
		} else {
			e.fn()
		}
	}
	if k.live > 0 {
		return k.deadlockError()
	}
	return nil
}

// deadlockError formats the deadlock failure: live Procs with nothing
// scheduled. Cold by construction — it runs at most once per Run, after
// the event loop has drained — so the fmt boxing it does is kept out of
// the escape-gated hot path.
func (k *Kernel) deadlockError() error {
	msg := fmt.Sprintf("sim: deadlock: %d procs alive, no events pending at %v", k.live, k.now)
	if k.deadlock != nil {
		msg += "\n" + k.deadlock()
	}
	return fmt.Errorf("%s", msg)
}

// Account returns the cycles and events this kernel advanced since the
// last Account and adds them to the process-wide totals. The watermarks
// make repeated calls (a kernel Run several times) never count anything
// twice. machine.Machine.Run calls it after every Run and folds the
// result into the run's environment.
func (k *Kernel) Account() (cycles, events int64) {
	cycles = int64(k.now - k.accounted)
	events = k.eventsDone - k.eventsAccounted
	k.accounted, k.eventsAccounted = k.now, k.eventsDone
	totalCycles.Add(cycles)
	totalEvents.Add(events)
	return cycles, events
}

// resumeProc transfers control to p until it parks or exits.
// Must only be called from the kernel goroutine (inside an event).
//
//simlint:hotpath
func (k *Kernel) resumeProc(p *Proc) {
	p.resume <- struct{}{}
	<-k.yield
}
