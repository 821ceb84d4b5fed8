package pic

import (
	"fmt"

	"spp1000/internal/c90"
	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/pvm"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Result summarizes one timed PIC run on the simulated machine.
type Result struct {
	Size    Size
	Procs   int
	Steps   int
	Variant string // "shared" or "pvm"
	Seconds float64
	Mflops  float64
}

// hypernodesFor reports how many hypernodes a high-locality team spans.
func hypernodesFor(procs int) int {
	hn := (procs + topology.CPUsPerNode - 1) / topology.CPUsPerNode
	if hn < 1 {
		hn = 1
	}
	return hn
}

// machineFor builds a machine just large enough for the team (the paper
// used a two-hypernode, 16-CPU system), reporting to env.
func machineFor(env *machine.Env, procs int) (*machine.Machine, int, error) {
	hn := hypernodesFor(procs)
	m, err := machine.New(machine.Config{Hypernodes: hn, Env: env})
	return m, hn, err
}

// RunShared times the shared-memory PIC variant: particle arrays
// block-partitioned over threads, grids far-shared, the field solve
// parallelized across threads, four barriers per step.
func RunShared(env *machine.Env, size Size, procs, steps int) (Result, error) {
	m, hn, err := machineFor(env, procs)
	if err != nil {
		return Result{}, err
	}
	model := NewModel(size, procs, hn, false)
	deposit := perfmodel.Cycles(m.P, model.DepositChunk())
	reduce := perfmodel.Cycles(m.P, model.ReduceChunk())
	solve := perfmodel.Cycles(m.P, model.SolveChunk(false))
	gather := perfmodel.Cycles(m.P, model.GatherPushChunk())

	bar := threads.NewBarrier(m, procs, 0)
	elapsed, err := threads.RunTeam(m, procs, threads.HighLocality, func(th *machine.Thread, tid int) {
		for step := 0; step < steps; step++ {
			th.ComputeCycles(deposit)
			bar.Wait(th)
			th.ComputeCycles(reduce)
			bar.Wait(th)
			th.ComputeCycles(solve)
			bar.Wait(th)
			th.ComputeCycles(gather)
			bar.Wait(th)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := model.FlopsPerStep() * int64(steps)
	return Result{
		Size: size, Procs: procs, Steps: steps, Variant: "shared",
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}, nil
}

// RunPVM times the message-passing variant the paper ported: particle
// arrays partitioned over tasks, grids replicated per task in private
// memory, the density all-reduced to task 0, the field solved there, and
// the three field components broadcast back — all through ConvexPVM.
func RunPVM(env *machine.Env, size Size, procs, steps int) (Result, error) {
	m, hn, err := machineFor(env, procs)
	if err != nil {
		return Result{}, err
	}
	model := NewModel(size, procs, hn, true)
	deposit := perfmodel.Cycles(m.P, model.DepositChunk())
	reduceAll := perfmodel.Cycles(m.P, model.ReduceChunk()) * int64(procs) // task 0 reduces serially
	solve := perfmodel.Cycles(m.P, model.SolveChunk(true))
	gather := perfmodel.Cycles(m.P, model.GatherPushChunk())
	gridBytes := size.Cells() * wordBytes

	sys := pvm.NewSystem(m)
	tasks := make([]*pvm.Task, procs)
	registered := m.K.NewSemaphore("registered", 0)
	allReady := m.K.NewEvent("allReady")

	var res Result
	elapsed, err := threads.RunTeam(m, procs, threads.HighLocality, func(th *machine.Thread, tid int) {
		tasks[tid] = sys.AddTask(th)
		registered.V()
		if tid == 0 {
			for i := 0; i < procs; i++ {
				registered.P(th.P)
			}
			allReady.Set()
		} else {
			allReady.Wait(th.P)
		}
		for step := 0; step < steps; step++ {
			th.ComputeCycles(deposit)
			if tid == 0 {
				// Gather partials, reduce, solve, broadcast fields.
				for i := 1; i < procs; i++ {
					tasks[0].Recv()
				}
				th.ComputeCycles(reduceAll)
				th.ComputeCycles(solve)
				for i := 1; i < procs; i++ {
					for f := 0; f < 3; f++ {
						tasks[0].Send(i, 100+f, gridBytes, nil)
					}
				}
			} else {
				tasks[tid].Send(0, 1, gridBytes, nil)
				for f := 0; f < 3; f++ {
					tasks[tid].Recv()
				}
			}
			th.ComputeCycles(gather)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := model.FlopsPerStep() * int64(steps)
	res = Result{
		Size: size, Procs: procs, Steps: steps, Variant: "pvm",
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}
	return res, nil
}

// C90Reference reports the single-head C90 time and rate for the run
// (the flat reference lines of Fig. 6 and the rows of Table 1).
func C90Reference(size Size, steps int) (seconds, mflops float64) {
	model := NewModel(size, 1, 1, false)
	fl := model.FlopsPerStep() * int64(steps)
	cray := c90.Default()
	rate := cray.Rate(c90.PIC)
	return float64(fl) / (rate * 1e6), rate
}

func (r Result) String() string {
	return fmt.Sprintf("pic %v %s p=%d: %.1f s, %.1f Mflop/s", r.Size, r.Variant, r.Procs, r.Seconds, r.Mflops)
}
