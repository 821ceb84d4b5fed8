package amr

import "testing"

func shockDomain(t *testing.T) *Domain {
	t.Helper()
	d, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := float64(4 * BlockSize)
	d.SetRegion(shockInit(w))
	return d
}

func TestRunProducesTiming(t *testing.T) {
	r, err := Run(nil, shockDomain(t), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 || r.Mflops <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.MaxLevel < 1 {
		t.Fatal("shock should refine during the timed run")
	}
	if r.ZoneUpdates >= r.UniformZones {
		t.Fatalf("AMR should update fewer zones than uniform: %d vs %d",
			r.ZoneUpdates, r.UniformZones)
	}
}

func TestRunScalesWithProcs(t *testing.T) {
	r1, err := Run(nil, shockDomain(t), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(nil, shockDomain(t), 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.Seconds / r8.Seconds
	if speedup < 4 || speedup > 8.2 {
		t.Fatalf("8-CPU AMR speedup = %.2f (serial regrid limits it)", speedup)
	}
}
