package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spp1000/internal/apps/nbody"
	"spp1000/internal/experiments"
	"spp1000/internal/machine"
	"spp1000/internal/runner"
	"spp1000/internal/sim"
)

// withProcs runs fn with GOMAXPROCS set to n — the pool width the
// runner defaults to — so an in-process probe uses as many host workers
// as the process it stands for (sppbench -par n, sppd -par n).
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// inprocPass runs exps one after another through experiments.Run and
// records each one's wall time, the pass's allocation and GC cycles,
// and the sim kernel's event and cycle totals as whole-pass deltas (the
// process-wide totals are exact only across a pass that nothing else
// overlaps). It returns the outputs in sppbench's banner format.
//
// It is the benchmark's only reader of sim.TotalEvents and
// sim.TotalCycles. Those are process globals that ROADMAP direction 1
// (an explicit per-run environment) replaces; the change that removes
// them has to give this function, and so the exact-count guard, their
// per-run replacement.
func inprocPass(r *report, tr *tracer, t *tally, exps []string, o experiments.Options, req string) []string {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e0, c0 := sim.TotalEvents(), sim.TotalCycles()
	root := tr.start("pass.inprocess", 0, req)
	start := time.Now()
	var outs []string
	for _, id := range exps {
		sp := tr.start("experiments.Run", root, "")
		t0 := time.Now()
		out, err := experiments.Run(id, o)
		r.set("experiments."+id+"_s", time.Since(t0).Seconds())
		tr.end(sp, "")
		t.attempted++
		if err != nil {
			t.fail("experiments.Run(%s): %v", id, err)
		}
		outs = append(outs, fmt.Sprintf("=== %s ===\n%s\n", id, out))
	}
	wall := time.Since(start)
	tr.end(root, "")
	events, cycles := sim.TotalEvents()-e0, sim.TotalCycles()-c0
	runtime.ReadMemStats(&m1)
	r.set("experiments.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	r.set("experiments.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("sim.events", float64(events))
	r.set("sim.cycles", float64(cycles))
	if events > 0 {
		r.set("sim.host_ns_per_event", float64(wall.Nanoseconds())/float64(events))
	}
	return outs
}

// pmuCounter names one PMU count the benchmark reports: the sum of
// counter over every component whose name is group or starts with
// "group.".
type pmuCounter struct {
	name, group, counter string
}

var pmuCounters = []pmuCounter{
	{"mem.accesses", "mem", "accesses"},
	{"mem.local_misses", "mem", "local_misses"},
	{"mem.hypernode_misses", "mem", "hypernode_misses"},
	{"mem.global_misses", "mem", "global_misses"},
	{"directory.invalidations", "directory", "invalidations"},
	{"directory.lookups", "directory", "lookups"},
	{"sci.purges", "sci", "purges"},
	{"ring.packets", "ring", "packets"},
	{"xbar.grants", "xbar", "grants"},
	{"threads.barrier_episodes", "threads", "barrier_episodes"},
}

// pmuPass runs `sppbench -counters` over exps and sums the PMU tables
// it prints.
func pmuPass(e *env, t *tally, exps []string, par int, quick bool) map[string]int64 {
	args := []string{"-exp", strings.Join(exps, ","), "-par", strconv.Itoa(par), "-counters"}
	if quick {
		args = append(args, "-quick")
	}
	res := runProc(filepath.Join(e.bin, "sppbench"), args...)
	t.attempted++
	if res.err != nil {
		t.fail("%v", res.err)
		return nil
	}
	return parsePMU(res.stdout)
}

// parsePMU sums the rows of every "PMU counters" table in out. A row is
// "component counter value"; histogram rows (n=… sum=…) are skipped.
func parsePMU(out []byte) map[string]int64 {
	got := map[string]int64{}
	for _, c := range pmuCounters {
		got[c.name] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "PMU counters:") {
			inTable = true
			continue
		}
		f := strings.Fields(line)
		if !inTable || len(f) != 3 {
			if strings.HasPrefix(line, "===") {
				inTable = false
			}
			continue
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			continue
		}
		for _, c := range pmuCounters {
			if (f[0] == c.group || strings.HasPrefix(f[0], c.group+".")) &&
				(f[1] == c.counter || strings.HasSuffix(f[1], "."+c.counter)) {
				got[c.name] += v
			}
		}
	}
	return got
}

// checkCounts is the exact-count guard: the sim totals and PMU counts
// of a pass are deterministic, so any difference from the counts
// recorded at the benchmark's commit is a determinism failure.
func checkCounts(r *report, want map[string]int64) {
	names := []string{"sim.events", "sim.cycles"}
	for _, c := range pmuCounters {
		names = append(names, c.name)
	}
	for _, n := range names {
		if got := int64(r.vals[n].v); got != want[n] {
			r.problem("determinism: %s = %d, recorded %d", n, got, want[n])
		}
	}
}

// probeMachine times machine construction (memory system and caches)
// at 1, 2 and 16 hypernodes, and the bytes one 2-hypernode machine
// allocates.
func probeMachine(r *report, tr *tracer) {
	const n = 5
	for _, hn := range []int{1, 2, 16} {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		var walls []float64
		for i := 0; i < n; i++ {
			sp := tr.start("machine.New", 0, fmt.Sprintf("machine-%dhn", hn))
			t0 := time.Now()
			m, err := machine.New(machine.Config{Hypernodes: hn})
			walls = append(walls, time.Since(t0).Seconds()*1e3)
			tr.end(sp, "")
			if err != nil || m == nil {
				r.problem("machine.New(%d hypernodes): %v", hn, err)
				return
			}
		}
		runtime.ReadMemStats(&ms1)
		r.setN(fmt.Sprintf("machine.new_%dhn_ms", hn), median(walls), n)
		if hn == 2 {
			r.set("machine.new_2hn_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/(1<<20))
		}
	}
}

// fig8Configs are Figure 8's (processors, hypernodes) points, as the
// experiment sweeps them for every particle count. fig8 keeps its table
// unexported, so TestFig8ConfigsMatchExperiment reads it from the
// experiments source and fails when the two differ.
var fig8Configs = []struct{ p, hn int }{
	{1, 1}, {2, 1}, {4, 1}, {8, 1}, {2, 2}, {4, 2}, {8, 2}, {16, 2},
}

// probeNBody runs Figure 8's two stages — counted workloads per size,
// then every (size, processors, hypernodes) run — through runner.Map,
// timing each work item. The runner's parallel efficiency is the summed
// item time over workers × wall.
func probeNBody(r *report, tr *tracer, t *tally) {
	o := experiments.Defaults()
	start := time.Now()
	root := tr.start("runner.Map", 0, "nbody-count")
	countS := make([]float64, len(o.NBodySizes))
	ws, err := runner.Map(len(countS), func(i int) (*nbody.Workload, error) {
		sp := tr.start("nbody.CountWorkload", root, "")
		defer tr.end(sp, "")
		t0 := time.Now()
		w := nbody.CountWorkload(o.NBodySizes[i], o.NBodySample, o.Seed)
		countS[i] = time.Since(t0).Seconds()
		return w, nil
	})
	tr.end(root, "")
	t.attempted++
	if err != nil {
		t.fail("nbody.CountWorkload: %v", err)
		return
	}
	root = tr.start("runner.Map", 0, "nbody-run")
	runS := make([]float64, len(ws)*len(fig8Configs))
	_, err = runner.Map(len(runS), func(i int) (nbody.Result, error) {
		sp := tr.start("nbody.Run", root, "")
		defer tr.end(sp, "")
		c := fig8Configs[i%len(fig8Configs)]
		t0 := time.Now()
		res, err := nbody.Run(ws[i/len(fig8Configs)], c.p, c.hn, o.AppSteps)
		runS[i] = time.Since(t0).Seconds()
		return res, err
	})
	tr.end(root, "")
	wall := time.Since(start).Seconds()
	t.attempted++
	if err != nil {
		t.fail("nbody.Run: %v", err)
		return
	}
	r.setN("nbody.count_workload_s", sum(countS), len(countS))
	r.setN("nbody.run_s", sum(runS), len(runS))
	r.set("runner.parallel_efficiency", (sum(countS)+sum(runS))/(float64(runtime.GOMAXPROCS(0))*wall))
}
