package experiments

import (
	"fmt"
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/machine"
	"spp1000/internal/runner"
)

// TestCounterRatios is the acceptance check that the PMU counters alone
// carry the paper's §4 calibration: every headline figure re-derived in
// DeriveCounterRatios must land on its architectural value.
func TestCounterRatios(t *testing.T) {
	d, err := DeriveCounterRatios(nil)
	if err != nil {
		t.Fatal(err)
	}
	// §4.1 miss ladder: local cold miss ≈60 cycles, global ≈432, and
	// their quotient is §6's "about eight times" (calibrated: 7.2).
	if d.LocalMissCycles < 55 || d.LocalMissCycles > 70 {
		t.Errorf("local miss latency %.1f cycles, want ~60 (§4.1)", d.LocalMissCycles)
	}
	if d.GlobalMissCycles < 400 || d.GlobalMissCycles > 470 {
		t.Errorf("global miss latency %.1f cycles, want ~432 (§4.1)", d.GlobalMissCycles)
	}
	if d.GlobalLocalRatio < 6 || d.GlobalLocalRatio > 10 {
		t.Errorf("global/local ratio %.2f, want ~8 (§6)", d.GlobalLocalRatio)
	}
	// §4.2 barrier release: the write reaches all n-1 = 15 spinners —
	// 7 local invalidations plus the 8 behind one SCI purge hop.
	if d.BarrierInvalidations != 15 {
		t.Errorf("barrier invalidations %d, want 15 (§4.2)", d.BarrierInvalidations)
	}
	if d.BarrierPurgeWalkMax != 1 {
		t.Errorf("barrier purge walk max %d, want 1 (§2.5 per-hypernode sharing)", d.BarrierPurgeWalkMax)
	}
	if d.BarrierAttaches != 1 {
		t.Errorf("barrier SCI attaches %d, want 1", d.BarrierAttaches)
	}
	// §2.5 global buffer: of two same-node readers only the first
	// crosses a ring; the second is served over the crossbar.
	if d.BufferGlobalMisses != 1 || d.BufferHypernodeMisses != 1 {
		t.Errorf("buffer misses global=%d hypernode=%d, want 1/1 (§2.5)",
			d.BufferGlobalMisses, d.BufferHypernodeMisses)
	}
	if d.BufferRingPackets != 2 {
		t.Errorf("buffer ring packets %d, want 2 (one round trip)", d.BufferRingPackets)
	}
	// Fig. 2 knee: a 9-thread team spills exactly one thread remote.
	if d.SpawnLocal != 8 || d.SpawnRemote != 1 || d.RuntimeInits != 1 {
		t.Errorf("fork boundary spawns local=%d remote=%d inits=%d, want 8/1/1 (Fig. 2)",
			d.SpawnLocal, d.SpawnRemote, d.RuntimeInits)
	}
}

// collectProbes runs the four probe simulations through a host worker
// pool of the given width, all in one Env with a collector, and returns
// the merged snapshot, rendered. The render is the determinism witness:
// it must not depend on how the host scheduled the probes.
func collectProbes(t *testing.T, workers int) string {
	t.Helper()
	env := &machine.Env{Workers: workers, Counters: counters.NewCollector()}
	probes := []func(*machine.Env) (counters.Snapshot, error){
		missLadder, barrierEpisode, globalBuffer, forkBoundary,
	}
	err := runner.Each(env.Width(), 2*len(probes), func(i int) error {
		_, err := probes[i%len(probes)](env)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return env.Counters.Snapshot().Render("probes")
}

// TestCounterDeterminismAcrossWorkers extends the PR 1 determinism
// guarantee to the counter subsystem: the collector's merged snapshot is
// byte-identical whether the simulations ran serially or on four host
// workers, because per-machine registries publish commutative deltas.
func TestCounterDeterminismAcrossWorkers(t *testing.T) {
	serial := collectProbes(t, 1)
	par := collectProbes(t, 4)
	if serial != par {
		t.Fatalf("collector snapshot differs serial vs 4 workers:\n--- serial ---\n%s\n--- par ---\n%s", serial, par)
	}
	if serial == "" || serial == "probes\n(no counters recorded)\n" {
		t.Fatal("collector snapshot empty")
	}
}

// TestCountersExperimentDeterministic pins the rendered experiment.
func TestCountersExperimentDeterministic(t *testing.T) {
	a, err := Run("counters", Quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("counters", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("counters report not deterministic")
	}
}

// TestProbeSnapshotsDisjointFromGlobalState guards the probes against
// leaking into each other: two back-to-back derivations agree exactly.
func TestProbeSnapshotsRepeatable(t *testing.T) {
	d1, err := DeriveCounterRatios(nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DeriveCounterRatios(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", d1) != fmt.Sprintf("%+v", d2) {
		t.Fatalf("counter derivation not repeatable:\n%+v\n%+v", d1, d2)
	}
}
