package nbody

import "testing"

// Tests for the message-passing variant (§5.3.2) and the dynamic
// load-balancing extension (§7 future work).

func countedWorkload(t *testing.T) *Workload {
	t.Helper()
	return CountWorkload(32768, 64, 1)
}

func TestPVMSerialFasterSharedParallelBetter(t *testing.T) {
	w := countedWorkload(t)
	s1, err := Run(w, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := RunPVM(nil, w, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// §5.3.2: "The single processor performance of the code was quite
	// good ... somewhat faster than ... the shared memory programming
	// model."
	if p1.Mflops <= s1.Mflops {
		t.Errorf("PVM serial (%v) should beat shared serial (%v)", p1.Mflops, s1.Mflops)
	}
	if p1.Mflops > s1.Mflops*1.4 {
		t.Errorf("PVM serial advantage too large: %v vs %v", p1.Mflops, s1.Mflops)
	}
	// "...overall performance is degraded relative to the shared
	// memory version."
	s16, err := Run(w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := RunPVM(nil, w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p16.Mflops >= s16.Mflops {
		t.Errorf("PVM at 16 (%v) should trail shared (%v)", p16.Mflops, s16.Mflops)
	}
	// Packing overheads grow with the task count: scaling efficiency
	// strictly below the shared version's.
	sEff := s16.Mflops / s1.Mflops
	pEff := p16.Mflops / p1.Mflops
	if pEff >= sEff {
		t.Errorf("PVM speedup (%v) should trail shared speedup (%v)", pEff, sEff)
	}
}

func TestPVMValidation(t *testing.T) {
	w := countedWorkload(t)
	if _, err := RunPVM(nil, w, 3, 1, 1); err == nil {
		t.Fatal("procs=3 should be rejected")
	}
}

func TestDynamicMatchesStaticWhenBalanced(t *testing.T) {
	w := countedWorkload(t)
	s, err := Run(w, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDynamic(nil, w, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Low imbalance at 2 threads: dynamic within a few percent.
	ratio := d.Mflops / s.Mflops
	if ratio < 0.93 || ratio > 1.1 {
		t.Errorf("dynamic/static at 2 procs = %.3f, want ≈1", ratio)
	}
}

func TestDynamicBeatsStaticUnderImbalance(t *testing.T) {
	w := countedWorkload(t)
	imb, err := w.ImbalanceRatio(16)
	if err != nil {
		t.Fatal(err)
	}
	if imb <= 1.02 {
		t.Skipf("workload too balanced (%.3f) to exercise the effect", imb)
	}
	s, err := Run(w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDynamic(nil, w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mflops <= s.Mflops {
		t.Errorf("dynamic (%v) should beat static (%v) at imbalance %.3f", d.Mflops, s.Mflops, imb)
	}
}

func TestImbalanceRatio(t *testing.T) {
	w := &Workload{N: 640, TreeNodes: 100, MicroBlocks: make([]int64, blocks)}
	for i := range w.MicroBlocks {
		w.MicroBlocks[i] = 100
	}
	r, err := w.ImbalanceRatio(16)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("uniform blocks imbalance = %v, want 1", r)
	}
	w.MicroBlocks[0] = 500 // one heavy block
	r, _ = w.ImbalanceRatio(blocks)
	if r <= 1 {
		t.Fatalf("skewed blocks imbalance = %v, want >1", r)
	}
	if _, err := w.ImbalanceRatio(3); err == nil {
		t.Fatal("procs=3 should be rejected")
	}
	zero := &Workload{MicroBlocks: make([]int64, blocks)}
	if r, _ := zero.ImbalanceRatio(4); r != 1 {
		t.Fatalf("zero workload imbalance = %v, want 1", r)
	}
}
