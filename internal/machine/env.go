package machine

import (
	"sync/atomic"

	"spp1000/internal/counters"
)

// Env is the environment of one run: the host pool width its sweeps fan
// out over, the counter sink its machines report to, and the simulated
// cycles and events they retire. Every machine built with the Env
// (Config.Env) folds into it, and into each of its ancestors, at the end
// of each Run, so what an Env holds is exactly the work done on its
// behalf, however many other runs share the process.
//
// A nil *Env is the default run: GOMAXPROCS workers, no counters, and
// no totals kept. An Env holds atomics, so it is passed by pointer and
// never copied; its fields are set before its first machine is built
// and never change after.
type Env struct {
	// Workers is the host pool width for the run's independent
	// simulations (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Counters, when non-nil, enables the PMU counter registry on every
	// machine built with this Env and receives their deltas.
	Counters *counters.Collector
	// Parent, when non-nil, receives every fold into this Env as well,
	// as it happens: a region of a run (one experiment of a checkpointed
	// suite, one job of a server) keeps its own exact figures while the
	// enclosing run's totals advance with it.
	Parent *Env

	cycles, events atomic.Int64
}

// Width reports the pool width to hand internal/runner (0 = GOMAXPROCS).
func (e *Env) Width() int {
	if e == nil {
		return 0
	}
	return e.Workers
}

// SimCycles reports the simulated cycles retired by this Env's machines.
func (e *Env) SimCycles() int64 {
	if e == nil {
		return 0
	}
	return e.cycles.Load()
}

// SimEvents reports the kernel events executed by this Env's machines.
func (e *Env) SimEvents() int64 {
	if e == nil {
		return 0
	}
	return e.events.Load()
}

// counting reports whether machines built with e keep PMU counters:
// e or one of its ancestors has a collector to receive them.
func (e *Env) counting() bool {
	for p := e; p != nil; p = p.Parent {
		if p.Counters != nil {
			return true
		}
	}
	return false
}

// fold moves one machine Run's counter deltas and kernel totals into e
// and every ancestor of e.
func (e *Env) fold(reg *counters.Registry, cycles, events int64) {
	var sinks []*counters.Collector
	for p := e; p != nil; p = p.Parent {
		p.cycles.Add(cycles)
		p.events.Add(events)
		if p.Counters != nil {
			sinks = append(sinks, p.Counters)
		}
	}
	counters.Publish(reg, sinks...)
}
