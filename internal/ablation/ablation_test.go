package ablation

import (
	"strings"
	"testing"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
)

func TestHardwareBarrierBeatsSoftware(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		c, err := CompareBarrier(nil, n)
		if err != nil {
			t.Fatal(err)
		}
		// §7: hardware support yields excellent operation compared to
		// software alternatives — a multiple, growing with team size.
		ratio := float64(c.Software) / float64(c.Hardware)
		if ratio < 2 {
			t.Errorf("n=%d: software/hardware barrier ratio = %.1f, want ≫1", n, ratio)
		}
	}
	// The gap widens with more threads (the coordinator serializes).
	c8, err := CompareBarrier(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	c16, err := CompareBarrier(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	r8 := float64(c8.Software) / float64(c8.Hardware)
	r16 := float64(c16.Software) / float64(c16.Hardware)
	if r16 <= r8 {
		t.Errorf("software penalty should grow with team size: %.1f then %.1f", r8, r16)
	}
}

func TestGlobalBufferWins(t *testing.T) {
	c, err := CompareGlobalBuffer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(c.WithoutBuffer) / float64(c.WithBuffer)
	// Without the buffer every re-read is a ring transaction (~8x a
	// crossbar access); with it, only the first touch crosses the ring.
	if ratio < 2 || ratio > 8 {
		t.Errorf("buffer ablation ratio = %.1f, want the ring/crossbar multiple", ratio)
	}
}

func TestFourRingsBeatOne(t *testing.T) {
	c, err := CompareRings(nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(c.OneRing) / float64(c.FourRings)
	// Four concurrent streams on one ring serialize: ~3-4x.
	if ratio < 1.8 || ratio > 4.5 {
		t.Errorf("single-ring slowdown = %.2f, want ≈3-4", ratio)
	}
}

func TestSchedulingComparison(t *testing.T) {
	w := nbody.CountWorkload(32768, 48, 1)
	c, err := CompareScheduling(nil, w, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Imbalance <= 1 {
		t.Fatalf("measured imbalance = %v, expected >1 for a Plummer sphere", c.Imbalance)
	}
	if c.Dynamic <= c.Static {
		t.Errorf("dynamic (%v) should beat static (%v) at imbalance %.3f",
			c.Dynamic, c.Static, c.Imbalance)
	}
}

func TestPowerOfTwoStudy(t *testing.T) {
	c, err := ComparePowerOfTwo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 16 saturated threads still beat 15 (the OS tax is a few percent,
	// not a whole CPU's worth) — but by less than 16/15.
	if c.Proc16 <= c.Proc15 {
		t.Errorf("16 threads (%v) should still beat 15 (%v)", c.Proc16, c.Proc15)
	}
	if ratio := c.Proc16 / c.Proc15; ratio > 16.0/15.0 {
		t.Errorf("16/15 rate ratio %.3f exceeds the ideal %.3f — intrusion missing", ratio, 16.0/15.0)
	}
}

func TestPlacementCounterfactual(t *testing.T) {
	// Block-shared placement must remove the FEM 8→9 dip.
	base9, err := fem.RunPlaced(nil, fem.SmallGrid, fem.GatherScatter, 9, 2, fem.HostedNearShared)
	if err != nil {
		t.Fatal(err)
	}
	block9, err := fem.RunPlaced(nil, fem.SmallGrid, fem.GatherScatter, 9, 2, fem.BlockSharedPartition)
	if err != nil {
		t.Fatal(err)
	}
	if block9.UsefulMflops <= base9.UsefulMflops*1.2 {
		t.Errorf("block-shared at 9 procs (%v) should clearly beat near-shared (%v)",
			block9.UsefulMflops, base9.UsefulMflops)
	}
	block8, err := fem.RunPlaced(nil, fem.SmallGrid, fem.GatherScatter, 8, 2, fem.BlockSharedPartition)
	if err != nil {
		t.Fatal(err)
	}
	if block9.UsefulMflops <= block8.UsefulMflops {
		t.Errorf("with block-shared placement the dip should vanish: %v at 8, %v at 9",
			block8.UsefulMflops, block9.UsefulMflops)
	}
}

func TestReportRenders(t *testing.T) {
	out, err := Report(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hardware", "software", "global cache buffer", "rings", "self-scheduling"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestScaleReport(t *testing.T) {
	out, err := ScaleReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"128", "tree code", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("scale report missing %q", want)
		}
	}
}
