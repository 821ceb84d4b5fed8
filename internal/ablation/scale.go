package ablation

import (
	"context"
	"fmt"

	"spp1000/internal/apps/nbody"
	"spp1000/internal/machine"
	"spp1000/internal/microbench"
	"spp1000/internal/runner"
	"spp1000/internal/sim"
	"spp1000/internal/stats"
	"spp1000/internal/threads"
)

// ScaleReport runs the paper's stated near-term future work (§7):
// "running on larger configuration platforms." The testbed had two
// hypernodes; the architecture allows sixteen (128 processors). The
// sweep extrapolates the §4 primitives and the tree code to the full
// machine on the simulator, reporting to env.
func ScaleReport(env *machine.Env) (string, error) {
	configs := []struct {
		hypernodes int
		threads    int
	}{
		{2, 16}, {4, 32}, {8, 64}, {16, 128},
	}

	type prim struct{ fj, lifo, lilo sim.Cycles }
	prims, err := runner.MapCtx(context.Background(), env.Width(), len(configs), func(i int) (prim, error) {
		cfg := configs[i]
		t, err := microbench.ForkJoinCost(env, cfg.hypernodes, cfg.threads, threads.HighLocality)
		if err != nil {
			return prim{}, err
		}
		lifo, lilo, err := microbench.BarrierCost(env, cfg.hypernodes, cfg.threads, threads.HighLocality)
		if err != nil {
			return prim{}, err
		}
		return prim{t, lifo, lilo}, nil
	})
	if err != nil {
		return "", err
	}
	fj := &stats.Series{Name: "fork-join (µs)"}
	barLIFO := &stats.Series{Name: "barrier LIFO (µs)"}
	barLILO := &stats.Series{Name: "barrier LILO (µs)"}
	for i, cfg := range configs {
		fj.Add(float64(cfg.threads), prims[i].fj.Micros())
		barLIFO.Add(float64(cfg.threads), prims[i].lifo.Micros())
		barLILO.Add(float64(cfg.threads), prims[i].lilo.Micros())
	}
	out := stats.Render("Extrapolation: primitives up to 16 hypernodes / 128 CPUs",
		"threads", "µs", fj, barLIFO, barLILO)

	// Tree code on the growing machine (64 work blocks cap the team at
	// 64 threads). runs[0] is the 1-CPU baseline.
	w := nbody.CountWorkload(262144, 64, 1)
	runs := []struct{ p, hn int }{{1, 1}, {8, 1}, {16, 2}, {32, 4}, {64, 8}}
	res, err := runner.MapCtx(context.Background(), env.Width(), len(runs), func(i int) (nbody.Result, error) {
		return nbody.RunEnv(env, w, runs[i].p, runs[i].hn, 2)
	})
	if err != nil {
		return "", err
	}
	base := res[0]
	sp := &stats.Series{Name: "speedup"}
	rate := &stats.Series{Name: "Mflop/s"}
	for i, cfg := range runs[1:] {
		sp.Add(float64(cfg.p), base.Seconds/res[i+1].Seconds)
		rate.Add(float64(cfg.p), res[i+1].Mflops)
	}
	out += "\n" + stats.Render("Extrapolation: tree code (262144 particles) beyond the testbed",
		"CPUs", "speedup / Mflop/s", sp, rate)
	out += fmt.Sprintf("(1-CPU rate %.1f Mflop/s; the paper's testbed stopped at 16 CPUs)\n", base.Mflops)
	return out, nil
}
