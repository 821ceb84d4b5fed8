package nbody

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Per-interaction operation counts of the force inner loop in tree.go.
const (
	interFlops  = 24 // displacement, r², monopole accumulation
	interSqrts  = 1  // 1/sqrt via the PA-7100 divide/sqrt unit
	interIntOps = 20 // stack handling and indirect child addressing
	interHits   = 12 // node fields and stack traffic served by cache
	// linesPerVisit is the cache-line footprint of one node visit.
	linesPerVisit = 3
	// treeReuse derates capacity misses for the hot upper levels of the
	// tree, which stay resident across consecutive (Morton-adjacent)
	// particles.
	treeReuse = 0.4

	buildIntOpsPerBody = 80
	buildFlopsPerBody  = 12
	pushFlopsPerBody   = 12
)

// Workload is the counted force-calculation work of one N-body problem,
// measured from real traversals: interactions summed per microblock of
// the (contiguous) particle partition, so any thread count that divides
// MicroBlocks can aggregate exact per-thread loads.
type Workload struct {
	N           int
	TreeNodes   int
	MicroBlocks []int64 // interactions per 1/16th block of particles
	Visited     int64   // total node visits (sampled estimate)
}

// blocks is the microblock count: finer than the largest team size of
// Fig. 8 so both the static block partition (any divisor of 64) and the
// dynamic self-scheduling extension can be driven from the same counted
// workload.
const blocks = 64

// MinBodies is the smallest problem CountWorkload accepts: one particle
// per microblock.
const MinBodies = blocks

// CountWorkload builds the problem, then measures per-block interaction
// counts by traversing a sample of particles from each microblock and
// scaling (documented sampling: the tree search cost is statistically
// uniform within a spatial block). n must be at least MinBodies.
func CountWorkload(n int, samplePerBlock int, seed uint64) *Workload {
	b := NewPlummer(n, seed)
	SortMorton(b)
	t := Build(b)
	w := &Workload{N: n, TreeNodes: t.NumNodes(), MicroBlocks: make([]int64, blocks)}
	blockSize := n / blocks
	if samplePerBlock <= 0 || samplePerBlock > blockSize {
		samplePerBlock = blockSize
	}
	for blk := 0; blk < blocks; blk++ {
		lo := blk * blockSize
		stride := blockSize / samplePerBlock
		if stride < 1 {
			stride = 1
		}
		var inter, vis int64
		samples := 0
		for i := lo; i < lo+blockSize; i += stride {
			_, _, _, st := t.Force(i, 0.7, 0.05)
			inter += st.Interactions
			vis += st.Visited
			samples++
		}
		w.MicroBlocks[blk] = inter * int64(blockSize) / int64(samples)
		w.Visited += vis * int64(blockSize) / int64(samples)
	}
	return w
}

// TotalInteractions sums the per-block counts.
func (w *Workload) TotalInteractions() int64 {
	var s int64
	for _, b := range w.MicroBlocks {
		s += b
	}
	return s
}

// Flops reports the counted floating-point work of one force step.
func (w *Workload) Flops() int64 {
	return w.TotalInteractions()*(interFlops+interSqrts*2) +
		int64(w.N)*(buildFlopsPerBody+pushFlopsPerBody)
}

// Result is one timed run.
type Result struct {
	N          int
	Procs      int
	Hypernodes int
	Steps      int
	Seconds    float64
	Mflops     float64
}

func (r Result) String() string {
	return fmt.Sprintf("nbody n=%d p=%d hn=%d: %.2f s, %.1f Mflop/s", r.N, r.Procs, r.Hypernodes, r.Seconds, r.Mflops)
}

// forceWork models the pure traversal work for a share of the
// interactions: compute plus tree-read misses served within the
// hypernode (cache capacity derated by upper-level reuse — the bodies
// are Morton-sorted, so consecutive particles walk nearly the same
// path).
func forceWork(w *Workload, inter int64) perfmodel.Chunk {
	c := perfmodel.Chunk{
		Flops:     inter * interFlops,
		Divides:   inter * interSqrts,
		IntOps:    inter * interIntOps,
		CacheHits: inter * interHits,
	}
	treeBytes := int64(w.TreeNodes) * NodeBytes
	missFrac := perfmodel.CapacityMissFraction(treeBytes, topology.CacheBytes) * treeReuse
	c.HypernodeMisses += int64(float64(inter*linesPerVisit) * missFrac)
	return c
}

// importChunk is the once-per-thread-per-step ring traffic of the
// far-shared tree: each remote line crosses the rings once per step per
// hypernode (the SCI buffer serves every re-read), divided among the
// hypernode's threads.
func importChunk(w *Workload, hypernodes, procs int) perfmodel.Chunk {
	var c perfmodel.Chunk
	if hypernodes <= 1 {
		return c
	}
	threadsPerHN := int64(procs / hypernodes)
	if threadsPerHN < 1 {
		threadsPerHN = 1
	}
	treeLines := int64(w.TreeNodes) * NodeBytes / topology.CacheLineBytes
	imports := treeLines * int64(hypernodes-1) / int64(hypernodes) / threadsPerHN
	c.GlobalMisses += imports
	// The same lines would otherwise have been crossbar misses.
	c.HypernodeMisses -= imports
	if c.HypernodeMisses < 0 {
		c.HypernodeMisses = 0
	}
	return c
}

// forceChunk is the static-partition combination used by Run: traversal
// work plus the thread's import share.
func forceChunk(p topology.Params, w *Workload, inter int64, hypernodes, procs int) perfmodel.Chunk {
	c := forceWork(w, inter)
	imp := importChunk(w, hypernodes, procs)
	if imp.GlobalMisses > 0 {
		// Convert that many crossbar misses into ring imports.
		moved := imp.GlobalMisses
		if moved > c.HypernodeMisses {
			moved = c.HypernodeMisses
		}
		c.HypernodeMisses -= moved
		c.GlobalMisses += moved
	}
	return c
}

// Run times the shared-memory tree code: thread 0 rebuilds the tree each
// step (the serial fraction), then every thread computes forces for its
// contiguous particle block — the per-block loads coming from the real
// measured traversals, so load imbalance is the genuine article. It is
// RunEnv with no run environment: GOMAXPROCS workers, no counters.
func Run(w *Workload, procs, hypernodes, steps int) (Result, error) {
	return RunEnv(nil, w, procs, hypernodes, steps)
}

// RunEnv is Run on a machine that reports to env.
func RunEnv(env *machine.Env, w *Workload, procs, hypernodes, steps int) (Result, error) {
	if blocks%procs != 0 {
		return Result{}, fmt.Errorf("nbody: procs %d must divide %d", procs, blocks)
	}
	m, err := machine.New(machine.Config{Hypernodes: hypernodes, Env: env})
	if err != nil {
		return Result{}, err
	}
	place := threads.HighLocality
	if hypernodes > 1 {
		place = threads.Uniform // paper: "2,4,8 and 16 processors across two hypernodes"
	}

	// Per-thread interaction loads: aggregate microblocks.
	per := blocks / procs
	loads := make([]int64, procs)
	for tid := 0; tid < procs; tid++ {
		for b := tid * per; b < (tid+1)*per; b++ {
			loads[tid] += w.MicroBlocks[b]
		}
	}
	// Tree insertion walks ~log8(N) levels of pointer-chased nodes;
	// roughly half those probes miss.
	depth := 0
	for n := w.N; n > 1; n >>= 3 {
		depth++
	}
	buildChunk := perfmodel.Chunk{
		Flops:       int64(w.N) * buildFlopsPerBody,
		IntOps:      int64(w.N) * buildIntOpsPerBody,
		CacheHits:   int64(w.N) * 6,
		LocalMisses: int64(w.N) * int64(depth) / 2,
	}
	pushChunk := perfmodel.Chunk{
		Flops:       int64(w.N/procs) * pushFlopsPerBody,
		CacheHits:   int64(w.N/procs) * 12,
		LocalMisses: int64(w.N/procs) * 2, // 6 words read + written
	}
	buildCycles := perfmodel.Cycles(m.P, buildChunk)
	pushCycles := perfmodel.Cycles(m.P, pushChunk)
	forceCycles := make([]int64, procs)
	for tid := range forceCycles {
		forceCycles[tid] = perfmodel.Cycles(m.P, forceChunk(m.P, w, loads[tid], hypernodes, procs))
	}

	bar := threads.NewBarrier(m, procs, 0)
	elapsed, err := threads.RunTeam(m, procs, place, func(th *machine.Thread, tid int) {
		for s := 0; s < steps; s++ {
			if tid == 0 {
				th.ComputeCycles(buildCycles)
			}
			bar.Wait(th)
			th.ComputeCycles(forceCycles[tid])
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
