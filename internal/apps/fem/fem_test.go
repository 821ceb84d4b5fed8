package fem

import (
	"math"
	"testing"
)

func mesh16(t *testing.T) *Mesh {
	t.Helper()
	m, err := NewPeriodic(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeshCounts(t *testing.T) {
	m := mesh16(t)
	if m.NumPoints() != 256 {
		t.Fatalf("points = %d, want 256", m.NumPoints())
	}
	if m.NumElements() != 512 {
		t.Fatalf("elements = %d, want 512 (2 per quad)", m.NumElements())
	}
	// Paper ratio: "about two elements to every point" (§5.2.2).
	ratio := float64(m.NumElements()) / float64(m.NumPoints())
	if ratio != 2 {
		t.Fatalf("element/point ratio = %v", ratio)
	}
}

func TestPaperMeshSizes(t *testing.T) {
	// Large dataset: 524 288 elements exactly (§5.2.2).
	if 2*LargeGrid[0]*LargeGrid[1] != 524288 {
		t.Fatalf("large grid gives %d elements", 2*LargeGrid[0]*LargeGrid[1])
	}
	// Small dataset: 92 160 elements exactly.
	if 2*SmallGrid[0]*SmallGrid[1] != 92160 {
		t.Fatalf("small grid gives %d elements", 2*SmallGrid[0]*SmallGrid[1])
	}
}

func TestMeshInvariants(t *testing.T) {
	for _, g := range [][2]int{{8, 8}, {16, 32}, {48, 60}} {
		m, err := NewPeriodic(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestMeshRejectsDegenerate(t *testing.T) {
	if _, err := NewPeriodic(1, 8); err == nil {
		t.Fatal("1xN mesh should be rejected")
	}
}

func TestPointValence(t *testing.T) {
	// Paper: an average of 6 elements communicate with every point.
	m := mesh16(t)
	valence := make([]int, m.NumPoints())
	for e := 0; e < m.NumElements(); e++ {
		for k := 0; k < 3; k++ {
			valence[m.Tri[3*e+k]]++
		}
	}
	for p, v := range valence {
		if v != 6 {
			t.Fatalf("point %d has valence %d, want 6 on the periodic mesh", p, v)
		}
	}
}

func TestUniformFlowPreserved(t *testing.T) {
	m := mesh16(t)
	s := NewState(m)
	for p := 0; p < m.NumPoints(); p++ {
		s.SetPrimitive(p, 1.0, 0.5, -0.25, 2.0)
	}
	for i := 0; i < 10; i++ {
		s.Step()
	}
	for p := 0; p < m.NumPoints(); p++ {
		rho, u, v, pr := s.Primitive(p)
		if math.Abs(rho-1) > 1e-10 || math.Abs(u-0.5) > 1e-10 ||
			math.Abs(v+0.25) > 1e-10 || math.Abs(pr-2) > 1e-9 {
			t.Fatalf("uniform flow disturbed at %d: %v %v %v %v", p, rho, u, v, pr)
		}
	}
}

func TestConservation(t *testing.T) {
	m := mesh16(t)
	s := NewState(m)
	// Gaussian density/pressure bump.
	for p := 0; p < m.NumPoints(); p++ {
		dx := m.PX[p] - 0.5
		dy := m.PY[p] - 0.5
		bump := math.Exp(-40 * (dx*dx + dy*dy))
		s.SetPrimitive(p, 1+0.5*bump, 0, 0, 1+bump)
	}
	before := s.Conserved()
	for i := 0; i < 30; i++ {
		s.Step()
	}
	after := s.Conserved()
	for k := 0; k < NVars; k++ {
		if math.Abs(after[k]-before[k]) > 1e-9*(math.Abs(before[k])+1) {
			t.Fatalf("conserved variable %d drifted: %v -> %v", k, before[k], after[k])
		}
	}
}

func TestBumpStaysBoundedAndSpreads(t *testing.T) {
	m := mesh16(t)
	s := NewState(m)
	for p := 0; p < m.NumPoints(); p++ {
		dx := m.PX[p] - 0.5
		dy := m.PY[p] - 0.5
		bump := math.Exp(-40 * (dx*dx + dy*dy))
		s.SetPrimitive(p, 1, 0, 0, 1+2*bump)
	}
	var maxP0 float64
	for p := 0; p < m.NumPoints(); p++ {
		_, _, _, pr := s.Primitive(p)
		if pr > maxP0 {
			maxP0 = pr
		}
	}
	for i := 0; i < 40; i++ {
		s.Step()
	}
	var maxP float64
	for p := 0; p < m.NumPoints(); p++ {
		rho, _, _, pr := s.Primitive(p)
		if math.IsNaN(rho) || math.IsNaN(pr) || rho <= 0 {
			t.Fatalf("unphysical state at %d: rho=%v pr=%v", p, rho, pr)
		}
		if pr > maxP {
			maxP = pr
		}
	}
	if maxP >= maxP0 {
		t.Fatalf("pressure pulse should decay: %v -> %v", maxP0, maxP)
	}
}

func TestElementPhaseDecomposes(t *testing.T) {
	// Element ranges processed separately accumulate the same residual
	// as one sweep — the basis of the parallel scatter-add.
	m := mesh16(t)
	s1 := NewState(m)
	s2 := NewState(m)
	for p := 0; p < m.NumPoints(); p++ {
		dx := m.PX[p] - 0.3
		s1.SetPrimitive(p, 1+0.2*math.Sin(6*dx), 0.1, 0, 1)
		s2.SetPrimitive(p, 1+0.2*math.Sin(6*dx), 0.1, 0, 1)
	}
	s1.ElementPhase(0, m.NumElements())
	half := m.NumElements() / 2
	s2.ElementPhase(0, half)
	s2.ElementPhase(half, m.NumElements())
	for i := range s1.Res {
		if math.Abs(s1.Res[i]-s2.Res[i]) > 1e-12 {
			t.Fatalf("residual differs at %d", i)
		}
	}
}

func TestVectorCodingMatchesGatherScatter(t *testing.T) {
	// The two codings of Fig. 7 compute identical numerics (§5.2.2:
	// "a second coding of the same numerics").
	m := mesh16(t)
	s1 := NewState(m)
	s2 := NewState(m)
	for p := 0; p < m.NumPoints(); p++ {
		dx := m.PX[p] - 0.4
		dy := m.PY[p] - 0.6
		s1.SetPrimitive(p, 1+0.3*math.Cos(5*dx)*math.Sin(3*dy), 0.2, -0.1, 1.5)
		s2.SetPrimitive(p, 1+0.3*math.Cos(5*dx)*math.Sin(3*dy), 0.2, -0.1, 1.5)
	}
	s1.ElementPhase(0, m.NumElements())
	s2.ElementPhaseVector(0, m.NumElements())
	for i := range s1.Res {
		if math.Abs(s1.Res[i]-s2.Res[i]) > 1e-12 {
			t.Fatalf("Res differs at %d: %v vs %v", i, s1.Res[i], s2.Res[i])
		}
		if math.Abs(s1.Diss[i]-s2.Diss[i]) > 1e-12 {
			t.Fatalf("Diss differs at %d", i)
		}
	}
	// Range decomposition of the vector coding too.
	s3 := NewState(m)
	for p := 0; p < m.NumPoints(); p++ {
		dx := m.PX[p] - 0.4
		dy := m.PY[p] - 0.6
		s3.SetPrimitive(p, 1+0.3*math.Cos(5*dx)*math.Sin(3*dy), 0.2, -0.1, 1.5)
	}
	half := m.NumElements() / 2
	s3.ElementPhaseVector(0, half)
	s3.ElementPhaseVector(half, m.NumElements())
	for i := range s1.Res {
		if math.Abs(s1.Res[i]-s3.Res[i]) > 1e-12 {
			t.Fatalf("split vector coding differs at %d", i)
		}
	}
}

func TestMaxWavespeedPositive(t *testing.T) {
	m := mesh16(t)
	s := NewState(m)
	sp := s.MaxWavespeed()
	want := math.Sqrt(Gamma) // c of ρ=1, p=1 gas at rest
	if math.Abs(sp-want) > 1e-9 {
		t.Fatalf("wavespeed = %v, want %v", sp, want)
	}
	// Range decomposition agrees with the full scan.
	a := s.MaxWavespeedRange(0, 100)
	b := s.MaxWavespeedRange(100, m.NumPoints())
	if math.Max(a, b) != sp {
		t.Fatal("range-decomposed wavespeed differs")
	}
}

func TestRunShapeTargets(t *testing.T) {
	// Fig. 7 shape checks at 3 steps.
	r1, err := Run(nil, SmallGrid, GatherScatter, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2.2: 0.042 point updates/µs for the parallelizing compiler.
	if r1.PointUpdatesPerUs < 0.03 || r1.PointUpdatesPerUs > 0.065 {
		t.Errorf("coding-1 single-CPU rate = %.4f pt/µs, want ≈0.042", r1.PointUpdatesPerUs)
	}
	v1, err := Run(nil, SmallGrid, VectorStyle, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2.2: 0.072 point updates/µs for the vector-style coding.
	if v1.PointUpdatesPerUs < 0.055 || v1.PointUpdatesPerUs > 0.09 {
		t.Errorf("coding-2 single-CPU rate = %.4f pt/µs, want ≈0.072", v1.PointUpdatesPerUs)
	}
	if v1.PointUpdatesPerUs <= r1.PointUpdatesPerUs {
		t.Error("vector-style coding should be faster on one CPU")
	}
	// Non-monotonic scaling between 8 and 9 processors (Fig. 7).
	r8, err := Run(nil, SmallGrid, GatherScatter, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Run(nil, SmallGrid, GatherScatter, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Run(nil, SmallGrid, GatherScatter, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r9.UsefulMflops >= r8.UsefulMflops {
		t.Errorf("expected the 8->9 dip: %v then %v useful Mflop/s", r8.UsefulMflops, r9.UsefulMflops)
	}
	if r16.UsefulMflops <= r8.UsefulMflops {
		t.Errorf("16 procs (%v) should recover past 8 (%v)", r16.UsefulMflops, r8.UsefulMflops)
	}
	// Good single-hypernode scaling.
	if eff := r8.UsefulMflops / r1.UsefulMflops / 8; eff < 0.8 {
		t.Errorf("8-CPU efficiency %.2f, want ≥0.8", eff)
	}
	// C90 reference line: ≈250 useful Mflop/s, above every 16-CPU
	// gather-scatter point.
	_, c90useful := C90Reference()
	if c90useful < 230 || c90useful > 270 {
		t.Errorf("C90 useful rate = %.0f, want ≈250", c90useful)
	}
}
