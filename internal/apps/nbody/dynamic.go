package nbody

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// RunDynamic implements the paper's stated future work (§7): "more
// dynamic load balancing and lightweight threads needs to be developed
// and implemented on this system to ease the programming burden."
//
// Instead of the static block partition of Run, threads self-schedule:
// each grabs the next unclaimed microblock by an atomic fetch-and-add on
// an uncached shared counter (the same primitive the barrier's counting
// semaphore uses), computes its forces, and returns for more. Balance
// improves — the heavy central blocks of the Morton-sorted Plummer
// sphere no longer pin to one thread — at the price of one uncached RMW
// per block, which serializes at the counter's home memory bank.
func RunDynamic(env *machine.Env, w *Workload, procs, hypernodes, steps int) (Result, error) {
	m, err := machine.New(machine.Config{Hypernodes: hypernodes, Env: env})
	if err != nil {
		return Result{}, err
	}
	place := threads.HighLocality
	if hypernodes > 1 {
		place = threads.Uniform
	}
	counter := m.Alloc("worklist", topology.NearShared, 0, 0)

	// Per-microblock force cycles: pure traversal work. The ring-import
	// share is charged once per thread per step, not per block.
	blockCycles := make([]int64, blocks)
	for b, inter := range w.MicroBlocks {
		blockCycles[b] = perfmodel.Cycles(m.P, forceWork(w, inter))
	}
	importCycles := perfmodel.Cycles(m.P, importChunk(w, hypernodes, procs))
	depth := 0
	for n := w.N; n > 1; n >>= 3 {
		depth++
	}
	buildCycles := perfmodel.Cycles(m.P, perfmodel.Chunk{
		Flops:       int64(w.N) * buildFlopsPerBody,
		IntOps:      int64(w.N) * buildIntOpsPerBody,
		CacheHits:   int64(w.N) * 6,
		LocalMisses: int64(w.N) * int64(depth) / 2,
	})
	pushCycles := perfmodel.Cycles(m.P, perfmodel.Chunk{
		Flops:       int64(w.N/procs) * pushFlopsPerBody,
		CacheHits:   int64(w.N/procs) * 12,
		LocalMisses: int64(w.N/procs) * 2,
	})

	// The shared work-list cursor, advanced in virtual time by the
	// threads' RMWs. Reset each step by thread 0 between barriers.
	next := 0
	bar := threads.NewBarrier(m, procs, 0)
	elapsed, err := threads.RunTeam(m, procs, place, func(th *machine.Thread, tid int) {
		for s := 0; s < steps; s++ {
			if tid == 0 {
				th.ComputeCycles(buildCycles)
				next = 0
			}
			bar.Wait(th)
			th.ComputeCycles(importCycles)
			for {
				th.RMW(counter, 0) // fetch-and-add on the work cursor
				if next >= blocks {
					break
				}
				b := next
				next++
				th.ComputeCycles(blockCycles[b])
			}
			bar.Wait(th)
			th.ComputeCycles(pushCycles)
			bar.Wait(th)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := w.Flops() * int64(steps)
	return Result{
		N: w.N, Procs: procs, Hypernodes: hypernodes, Steps: steps,
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}, nil
}

// ImbalanceRatio reports max/mean of the static per-thread interaction
// loads for a team size — the quantity dynamic scheduling removes.
func (w *Workload) ImbalanceRatio(procs int) (float64, error) {
	if blocks%procs != 0 {
		return 0, fmt.Errorf("nbody: procs %d must divide %d", procs, blocks)
	}
	per := blocks / procs
	var max, sum int64
	for tid := 0; tid < procs; tid++ {
		var load int64
		for b := tid * per; b < (tid+1)*per; b++ {
			load += w.MicroBlocks[b]
		}
		sum += load
		if load > max {
			max = load
		}
	}
	mean := float64(sum) / float64(procs)
	if mean == 0 {
		return 1, nil
	}
	return float64(max) / mean, nil
}
