// Package directives reproduces the Convex compilers' parallel
// directive interface (§3.2): parallel loops with static, chunked, or
// self-scheduled iteration assignment, synchronous thread semantics,
// and the memory-placement idioms the paper highlights — including the
// observation that "parallel loops can achieve marked performance gains
// just by making scalar variables thread private to eliminate cache
// thrashing", which FalseSharing demonstrates on the simulated
// coherence machinery.
package directives

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Schedule selects the loop-iteration assignment policy.
type Schedule int

const (
	// Static divides iterations into one contiguous block per thread
	// at loop entry (the compilers' default).
	Static Schedule = iota
	// Chunked deals fixed-size chunks round-robin.
	Chunked
	// SelfScheduled lets threads grab the next chunk from a shared
	// counter — dynamic balance at the cost of one uncached
	// read-modify-write per chunk.
	SelfScheduled
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Chunked:
		return "chunked"
	default:
		return "self-scheduled"
	}
}

// Loop describes one parallel loop.
type Loop struct {
	Iters    int
	Threads  int
	Place    threads.Placement
	Schedule Schedule
	// Chunk is the chunk size for Chunked/SelfScheduled (default 1).
	Chunk int
}

// For runs body(th, i) for every iteration 0 ≤ i < Iters on a team of
// simulated threads and returns the loop's fork-to-join virtual time.
// Iterations within a thread run in index order; across threads the
// interleaving follows the schedule.
func For(m *machine.Machine, l Loop, body func(th *machine.Thread, i int)) (sim.Cycles, error) {
	if l.Iters < 0 || l.Threads < 1 {
		return 0, fmt.Errorf("directives: invalid loop %+v", l)
	}
	chunk := l.Chunk
	if chunk < 1 {
		chunk = 1
	}
	var cursorSpace topology.Space
	next := 0
	if l.Schedule == SelfScheduled {
		cursorSpace = m.Alloc("loop.cursor", topology.NearShared, 0, 0)
	}
	return threads.RunTeam(m, l.Threads, l.Place, func(th *machine.Thread, tid int) {
		switch l.Schedule {
		case Static:
			lo := tid * l.Iters / l.Threads
			hi := (tid + 1) * l.Iters / l.Threads
			for i := lo; i < hi; i++ {
				body(th, i)
			}
		case Chunked:
			for base := tid * chunk; base < l.Iters; base += l.Threads * chunk {
				for i := base; i < base+chunk && i < l.Iters; i++ {
					body(th, i)
				}
			}
		case SelfScheduled:
			for {
				th.RMW(cursorSpace, 0) // fetch-and-add on the cursor
				if next >= l.Iters {
					return
				}
				base := next
				next += chunk
				hi := base + chunk
				if hi > l.Iters {
					hi = l.Iters
				}
				for i := base; i < hi; i++ {
					body(th, i)
				}
			}
		}
	})
}

// ReduceSum runs a parallel sum-reduction loop: each thread accumulates
// its iterations into a thread-private partial (the §3.2 idiom), and the
// partials are combined under a gate at the join. It returns the sum of
// value(i) over 0 ≤ i < l.Iters and the loop's virtual duration.
func ReduceSum(m *machine.Machine, l Loop, value func(i int) float64) (float64, sim.Cycles, error) {
	if l.Iters < 0 || l.Threads < 1 {
		return 0, 0, fmt.Errorf("directives: invalid loop %+v", l)
	}
	g := threads.NewGate(m, 0)
	priv := m.Alloc("reduce.partials", topology.ThreadPrivate, 0, 0)
	var total float64
	elapsed, err := threads.RunTeam(m, l.Threads, l.Place, func(th *machine.Thread, tid int) {
		var partial float64
		lo := tid * l.Iters / l.Threads
		hi := (tid + 1) * l.Iters / l.Threads
		for i := lo; i < hi; i++ {
			partial += value(i)
			th.ComputeCycles(2)
			// The private accumulator stays cache-resident.
			th.Write(priv, topology.Addr(tid*topology.CacheLineBytes))
		}
		g.Critical(th, func() {
			total += partial
			th.ComputeCycles(2)
		})
	})
	if err != nil {
		return 0, 0, err
	}
	return total, elapsed, nil
}

// FalseSharing measures the §3.2 effect: eight threads each accumulate
// into a per-thread scalar `iters` times. In the "shared" variant the
// scalars are adjacent words of a shared array — four per cache line —
// so every update invalidates the line in three other caches; in the
// "private" variant each scalar is thread private. The ratio is the
// "cache thrashing" the directive eliminates. The machines report to env.
func FalseSharing(env *machine.Env, iters int) (shared, private sim.Cycles, err error) {
	run := func(class topology.Class, spread int) (sim.Cycles, error) {
		m, err := machine.New(machine.Config{Hypernodes: 1, Env: env})
		if err != nil {
			return 0, err
		}
		sp := m.Alloc("accumulators", class, 0, 0)
		return threads.RunTeam(m, 8, threads.HighLocality, func(th *machine.Thread, tid int) {
			addr := topology.Addr(tid * spread)
			for i := 0; i < iters; i++ {
				th.Read(sp, addr)
				th.ComputeCycles(4) // the accumulation arithmetic
				th.Write(sp, addr)
			}
		})
	}
	// Shared: 8 doubles packed into two cache lines.
	if shared, err = run(topology.NearShared, 8); err != nil {
		return
	}
	// Thread private: each scalar in its own thread's memory (and, being
	// a distinct space offset per thread, in its own line).
	private, err = run(topology.ThreadPrivate, topology.CacheLineBytes)
	return
}
