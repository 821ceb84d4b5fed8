package spp1000

// Integration tests: the paper's headline claims, each asserted
// end-to-end through the public experiment surface. EXPERIMENTS.md is
// the prose version of this file.

import (
	"testing"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/apps/ppm"
	"spp1000/internal/microbench"
	"spp1000/internal/stats"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Abstract claim: "overhead and latencies of global primitive
// mechanisms, while low in absolute time, are significantly more costly
// than similar functions local to an individual processor ensemble."
func TestAbstractClaim(t *testing.T) {
	// Fork-join: local vs cross-hypernode team.
	local, err := microbench.ForkJoinCost(nil, 2, 8, threads.HighLocality)
	if err != nil {
		t.Fatal(err)
	}
	global, err := microbench.ForkJoinCost(nil, 2, 8, threads.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if global <= local {
		t.Errorf("global fork-join (%v) should exceed local (%v)", global, local)
	}
	// "low in absolute time": global stays within a few hundred µs.
	if global.Micros() > 500 {
		t.Errorf("global fork-join (%v) should still be low in absolute time", global)
	}
	// Message passing: local vs global round trip.
	lRT, err := microbench.MessageRoundTrip(nil, 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	gRT, err := microbench.MessageRoundTrip(nil, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	ratio := gRT.Micros() / lRT.Micros()
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("global/local message ratio = %.2f, want a small multiple", ratio)
	}
	// Memory: the §6 ~8x global miss penalty.
	p := topology.DefaultParams()
	if r := float64(p.GlobalMissCycles(1)) / float64(p.HypernodeMiss); r < 6 || r > 10 {
		t.Errorf("global/local miss ratio = %.1f, want ≈8", r)
	}
}

// §6: "a single hypernode sustained performance approached that of a
// single head of a CRI C-90" — and crossing at 16 CPUs for PIC.
func TestC90ComparisonClaim(t *testing.T) {
	r16, err := pic.RunShared(nil, pic.Small, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, c90 := pic.C90Reference(pic.Small, 5)
	if r16.Mflops < 0.7*c90 {
		t.Errorf("16-CPU PIC (%.0f) should approach the C90 head (%.0f)", r16.Mflops, c90)
	}
	// FEM: the C90 line stays above the gather-scatter coding at 16.
	f16, err := fem.Run(nil, fem.SmallGrid, fem.GatherScatter, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, c90fem := fem.C90Reference()
	if f16.UsefulMflops >= c90fem {
		t.Errorf("FEM gather-scatter at 16 CPUs (%.0f) stayed below the C90 line (%.0f) in the paper",
			f16.UsefulMflops, c90fem)
	}
}

// §7: "scaling of full applications ranged widely from excellent
// (better than 80%) efficiency to poor where performance was seen to
// degrade between 8 and 16 processors."
func TestScalingRangeClaim(t *testing.T) {
	// Excellent: PPM at 8 CPUs.
	p1, err := ppm.Run(nil, ppm.Table2A, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := ppm.Run(nil, ppm.Table2A, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eff := p8.Mflops / p1.Mflops / 8; eff < 0.8 {
		t.Errorf("PPM efficiency at 8 CPUs = %.2f, want better than 0.8", eff)
	}
	// Degradation between 8 and 16: the FEM dip at 9.
	f8, err := fem.Run(nil, fem.SmallGrid, fem.GatherScatter, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := fem.Run(nil, fem.SmallGrid, fem.GatherScatter, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f9.UsefulMflops >= f8.UsefulMflops {
		t.Errorf("FEM should degrade from 8 (%.0f) to 9 (%.0f) CPUs", f8.UsefulMflops, f9.UsefulMflops)
	}
}

// §3.1: "a PVM implementation of an application can achieve almost one
// half the performance of a shared memory implementation."
func TestPVMHalfClaim(t *testing.T) {
	s, err := pic.RunShared(nil, pic.Small, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pic.RunPVM(nil, pic.Small, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	frac := p.Mflops / s.Mflops
	if frac < 0.3 || frac > 0.75 {
		t.Errorf("PVM/shared = %.2f, want ≈0.5", frac)
	}
}

// §5.3.2: tree-code cross-hypernode degradation "between 2 and 7
// percent", and 384 vs 27.5 Mflop/s.
func TestTreeCodeClaims(t *testing.T) {
	w := nbody.CountWorkload(32768, 64, 1)
	r1, err := nbody.Run(w, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mflops < 20 || r1.Mflops > 35 {
		t.Errorf("single-CPU tree code = %.1f Mflop/s, paper: 27.5", r1.Mflops)
	}
	r8a, err := nbody.Run(w, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r8b, err := nbody.Run(w, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if deg := 1 - r8b.Mflops/r8a.Mflops; deg < -0.02 || deg > 0.1 {
		t.Errorf("cross-hypernode degradation = %.1f%%, paper: 2-7%%", deg*100)
	}
	r16, err := nbody.Run(w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r16.Mflops < 250 || r16.Mflops > 450 {
		t.Errorf("16-CPU tree code = %.0f Mflop/s, paper: 384", r16.Mflops)
	}
}

// Fig. 2 headline numbers as a single sweep.
func TestFig2Claims(t *testing.T) {
	hl, un, err := microbench.ForkJoinSweep(nil, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var local []stats.Point
	for _, p := range hl.Points {
		if p.X >= 2 && p.X <= 8 {
			local = append(local, p)
		}
	}
	if slope := stats.Slope(local) * 2; slope < 7 || slope > 13 {
		t.Errorf("local pair slope = %.1f µs, paper: ≈10", slope)
	}
	u2, _ := un.YAt(2)
	h2, _ := hl.YAt(2)
	if step := u2 - h2; step < 35 || step > 90 {
		t.Errorf("second-hypernode overhead = %.0f µs, paper: ≈50", step)
	}
}
