// Package spp1000 hosts the repository-level benchmarks: one testing.B
// benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the complete artifact on the simulated machine;
// reported custom metrics are simulated-machine quantities (virtual
// seconds, simulated Mflop/s), not host-machine throughput.
package spp1000

import (
	"context"
	"runtime"
	"testing"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/apps/ppm"
	"spp1000/internal/experiments"
	"spp1000/internal/load"
	"spp1000/internal/machine"
	"spp1000/internal/microbench"
)

// reportEventRate attaches the events/sec-per-core metric: simulation
// events env's machines executed during the benchmark per wall-clock
// second, divided by the host cores available (runtime.GOMAXPROCS) —
// the engine throughput number ROADMAP asks to track, comparable across
// hosts.
func reportEventRate(b *testing.B, env *machine.Env) {
	if sec, events := b.Elapsed().Seconds(), env.SimEvents(); sec > 0 && events > 0 {
		b.ReportMetric(float64(events)/sec/float64(runtime.GOMAXPROCS(0)), "events/sec-per-core")
	}
}

func opts(b *testing.B) experiments.Options {
	if testing.Short() {
		return experiments.Quick()
	}
	o := experiments.Defaults()
	// Benchmarks iterate; keep single-iteration cost moderate while
	// staying at paper problem sizes. The 2M-particle N-body count is
	// left to the perfbench nbody-2m workload, which checks every pass
	// of `sppbench -exp fig8` against a recorded stdout digest.
	o.NBodySizes = []int{32768, 262144}
	return o
}

// runExp regenerates one experiment under env.
func runExp(b *testing.B, env *machine.Env, name string, o experiments.Options) {
	if _, err := experiments.RunCtx(context.Background(), env, name, o); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig2ForkJoin regenerates Figure 2.
func BenchmarkFig2ForkJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "fig2", opts(b))
	}
}

// BenchmarkFig3Barrier regenerates Figure 3.
func BenchmarkFig3Barrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "fig3", opts(b))
	}
}

// BenchmarkFig4Message regenerates Figure 4.
func BenchmarkFig4Message(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "fig4", opts(b))
	}
	rt, err := microbench.MessageRoundTrip(nil, 1024, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rt.Micros(), "sim-us/global-RT")
}

// BenchmarkTab1C90PIC regenerates Table 1.
func BenchmarkTab1C90PIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "tab1", opts(b))
	}
	sec, rate := pic.C90Reference(pic.Small, 500)
	b.ReportMetric(rate, "sim-C90-Mflops")
	b.ReportMetric(sec, "sim-C90-seconds")
}

// BenchmarkFig6PIC regenerates Figure 6.
func BenchmarkFig6PIC(b *testing.B) {
	o := opts(b)
	env := &machine.Env{}
	for i := 0; i < b.N; i++ {
		runExp(b, env, "fig6", o)
	}
	reportEventRate(b, env)
	r, err := pic.RunShared(nil, pic.Small, 16, o.PICSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mflops, "sim-Mflops-16cpu")
}

// BenchmarkFig7FEM regenerates Figure 7.
func BenchmarkFig7FEM(b *testing.B) {
	o := opts(b)
	env := &machine.Env{}
	for i := 0; i < b.N; i++ {
		runExp(b, env, "fig7", o)
	}
	reportEventRate(b, env)
	r, err := fem.Run(nil, fem.SmallGrid, fem.GatherScatter, 16, o.AppSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.UsefulMflops, "sim-useful-Mflops-16cpu")
}

// BenchmarkFig6PIC128 times the paper's largest PIC configuration — the
// full 128-CPU machine the authors did not have.
func BenchmarkFig6PIC128(b *testing.B) {
	o := opts(b)
	env := &machine.Env{}
	var r pic.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = pic.RunShared(env, pic.Small, 128, o.PICSteps)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, env)
	b.ReportMetric(r.Mflops, "sim-Mflops-128cpu")
}

// BenchmarkFig7FEM128 times the FEM large grid on the full 128-CPU
// machine (see BenchmarkFig6PIC128).
func BenchmarkFig7FEM128(b *testing.B) {
	o := opts(b)
	env := &machine.Env{}
	var r fem.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = fem.Run(env, fem.LargeGrid, fem.GatherScatter, 128, o.AppSteps)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, env)
	b.ReportMetric(r.UsefulMflops, "sim-useful-Mflops-128cpu")
}

// BenchmarkFig8NBody regenerates Figure 8 (32K and 256K particles; run
// cmd/sppbench for the full 2M-particle sweep).
func BenchmarkFig8NBody(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "fig8", o)
	}
	w := nbody.CountWorkload(32768, o.NBodySample, o.Seed)
	r, err := nbody.Run(w, 16, 2, o.AppSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mflops, "sim-Mflops-16cpu")
}

// BenchmarkAblations runs the design-choice ablation suite (extension).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "ablate", opts(b))
	}
}

// BenchmarkAMR runs the adaptive-mesh-refinement extension.
func BenchmarkAMR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "amr", opts(b))
	}
}

// BenchmarkTab2PPM regenerates Table 2.
func BenchmarkTab2PPM(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "tab2", o)
	}
	r, err := ppm.Run(nil, ppm.Table2A, 8, o.AppSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mflops, "sim-Mflops-8cpu")
}

// BenchmarkLoadMix measures the sppload op generator: the per-op cost
// of the smooth-WRR class schedule plus the zipfian hot-key draw. The
// generator sits on every load-test worker's critical path, so it must
// stay allocation-free per op — allocs/op here is gated by benchtrend
// like any other benchmark.
func BenchmarkLoadMix(b *testing.B) {
	gen, err := load.NewGenerator(load.DefaultMix(), 8, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hot := 0
	for i := 0; i < b.N; i++ {
		if gen.Next().Class == load.OpHot {
			hot++
		}
	}
	if b.N >= 100 && (hot < b.N/4 || hot > b.N/2+1) {
		b.Fatalf("hot fraction %d/%d drifted from the 40%% mix", hot, b.N)
	}
}
