package service

// These tests pin per-job attribution: every job's machines report to
// the job's own machine.Env, so its counters and sim totals are exact
// however many jobs (or servers) share the process. They arm
// internal/faultinject and so must not run in parallel.

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/experiments"
	"spp1000/internal/faultinject"
	"spp1000/internal/machine"
)

// serialCounters runs one quick experiment alone in its own Env and
// returns the flattened counter snapshot a job of it must report.
func serialCounters(t *testing.T, name string) map[string]int64 {
	t.Helper()
	env := &machine.Env{Workers: 1, Counters: counters.NewCollector()}
	if _, err := experiments.RunCtx(context.Background(), env, name, experiments.Quick()); err != nil {
		t.Fatal(err)
	}
	return env.Counters.Snapshot().Flatten()
}

// TestConcurrentJobCountersExact: with two job workers, a fig2 job and a
// fig3 job are held at RunStart until both have started, so their
// simulations overlap; each job view's counters must still equal its
// spec's serial snapshot exactly.
func TestConcurrentJobCountersExact(t *testing.T) {
	want := map[string]map[string]int64{
		"fig2": serialCounters(t, "fig2"),
		"fig3": serialCounters(t, "fig3"),
	}
	var started sync.WaitGroup
	started.Add(2)
	disarm := faultinject.Arm(faultinject.RunStart, func(...string) error {
		started.Done()
		started.Wait() // release both jobs together
		return nil
	})
	t.Cleanup(disarm)

	_, ts := newTestServer(t, Config{Workers: 2})
	ids := map[string]string{}
	for name := range want {
		v, code := submit(t, ts, `{"experiments":["`+name+`"],"quick":true}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", name, code)
		}
		ids[name] = v.ID
	}
	for name, id := range ids {
		done := waitStatus(t, ts, id, StatusDone)
		if !reflect.DeepEqual(done.Counters, want[name]) {
			t.Errorf("%s job counters differ from its serial run:\n got  %v\n want %v", name, done.Counters, want[name])
		}
	}
}

// TestServerMetricsIsolated: two servers in one process keep separate
// books. A fig2 job on A shows up in A's /metrics with exactly fig2's
// simulated cycles, and leaves every sim metric of B at 0.
func TestServerMetricsIsolated(t *testing.T) {
	_, a := newTestServer(t, Config{})
	_, b := newTestServer(t, Config{})
	v, code := submit(t, a, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, a, v.ID, StatusDone)

	if got := metricsMap(t, a)["sim_cycles_total"]; got != 363800 {
		t.Errorf("A sim_cycles_total = %v, want fig2's 363800", got)
	}
	for name, val := range metricsMap(t, b) {
		if (name == "sim_cycles_total" || strings.HasPrefix(name, "sim_counter_")) && val != 0 {
			t.Errorf("B ran nothing but reports %s = %v", name, val)
		}
	}
}

// TestMetricsAdvanceDuringJob: a job's Env has the server's aggregate as
// its parent, so /metrics shows each simulation as soon as it finishes.
// The job runs fig2, then blocks before returning; while it is still
// running, the server already reports fig2's cycles and counters.
func TestMetricsAdvanceDuringJob(t *testing.T) {
	want := serialCounters(t, "fig2")
	if want["threads.forks"] == 0 {
		t.Fatal("fig2's serial run counted no threads.forks")
	}
	ran, release := make(chan struct{}), make(chan struct{})
	run := func(ctx context.Context, env *machine.Env, spec experiments.Spec) (string, error) {
		out, err := experiments.RunCtx(ctx, env, "fig2", spec.Options)
		close(ran)
		<-release
		return out, err
	}
	_, ts := newTestServer(t, Config{Run: run})
	v, code := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-ran
	m := metricsMap(t, ts)
	if m["jobs_running"] != 1 {
		t.Errorf("jobs_running = %v, want the blocked job", m["jobs_running"])
	}
	if got := m["sim_cycles_total"]; got != 363800 {
		t.Errorf("sim_cycles_total mid-job = %v, want fig2's 363800", got)
	}
	if got := m["sim_counter_threads_forks"]; got != float64(want["threads.forks"]) {
		t.Errorf("sim_counter_threads_forks mid-job = %v, want %d", got, want["threads.forks"])
	}
	close(release)
	waitStatus(t, ts, v.ID, StatusDone)
	if got := metricsMap(t, ts)["sim_cycles_total"]; got != 363800 {
		t.Errorf("sim_cycles_total after the job = %v, want 363800 (no double fold)", got)
	}
}
