package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spp1000/internal/experiments"
)

// simWorkload runs sppbench at paper scale, one fresh process per pass,
// exactly as a user reproducing the paper would.
type simWorkload struct {
	name string
	exps []string
	par  int
	// digest is the SHA-256 of one pass's stdout. Paper-scale output is
	// deterministic, so every pass must match it byte for byte.
	digest string
	// counts are the exact sim totals and PMU counts of one pass.
	counts map[string]int64
}

// tab1Digest is the SHA-256 of `sppbench -exp tab1` stdout (paper or
// quick scale: Table 1 takes no options).
const tab1Digest = "3883b0dc70ed820de0951370009a79bdac94c7e2c4f80aa4682f1da7ae18dda3"

// tab1PerPass is how many timed `sppbench -exp tab1` processes follow
// each pass. tab1 is analytical, so such a process is start-up and init
// plus the cheapest request a simulator user can make; its wall time is
// both setup_s and hot_p50_ms. Ten per pass give a p50 at least ten
// samples beyond it after two passes, and cost under a tenth of a pass.
const tab1PerPass = 10

var paperSim = &simWorkload{
	name:   "paper-sim",
	exps:   []string{"fig2", "fig3", "fig4", "tab1", "fig6", "fig7", "tab2"},
	par:    1,
	digest: "b6647468ee8c40ebd021ccaef858142e9356f6a761968f7872c78c2dc3a167f2",
	counts: paperSimCounts,
}

var nbody2M = &simWorkload{
	name:   "nbody-2m",
	exps:   []string{"fig8"},
	par:    2,
	digest: "0c4c7be4ba366554c5b24b76f6c48d9b250ccf600e98074404c73d117bb7068c",
	counts: nbody2MCounts,
}

// simStats accumulates one loop's samples.
type simStats struct {
	passS  []float64 // pass wall, seconds
	cpuS   []float64 // pass CPU, seconds
	hotCPU []float64 // tab1 process CPU, seconds (setup_s)
	rssMB  []float64 // pass peak RSS
	hotMS  []float64 // tab1 process wall, milliseconds (hot_*)
	traced []float64 // wall of the passes run with tracing on
}

// tally is the run's operation count and failures.
type tally struct {
	attempted, failed int
	errs              []string // the first few failure reasons
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// checkProc counts one finished process as an operation and reports
// whether it exited cleanly with the expected stdout digest.
func (t *tally) checkProc(res procResult, digest string) bool {
	t.attempted++
	if res.err != nil {
		t.fail("%v", res.err)
		return false
	}
	if got := digestOf(res.stdout); got != digest {
		t.fail("stdout digest %s, want %s", got, digest)
		return false
	}
	return true
}

func (w *simWorkload) args() []string {
	return []string{"-exp", strings.Join(w.exps, ","), "-par", strconv.Itoa(w.par)}
}

// loop runs passes, each followed by its tab1 probes, until d has
// elapsed. In the traced run every other pass is traced, so that traced
// and untraced passes see the same host conditions.
func (w *simWorkload) loop(e *env, d time.Duration, t *tally) simStats {
	var st simStats
	bin := filepath.Join(e.bin, "sppbench")
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		e.ref.tick()
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr
		}
		req := fmt.Sprintf("pass-%d", i)
		root := tr.start("pass.sppbench", 0, req)
		sp := tr.start("sppbench.process", root, "")
		res := runProc(bin, w.args()...)
		tr.end(sp, "")
		tr.end(root, "")
		e.ref.tick()
		switch {
		case !t.checkProc(res, w.digest):
		case tr != nil:
			st.traced = append(st.traced, res.wall.Seconds())
		default:
			st.passS = append(st.passS, res.wall.Seconds())
			st.cpuS = append(st.cpuS, res.cpu.Seconds())
			st.rssMB = append(st.rssMB, res.rssMB)
		}
		// One more probe than tab1PerPass: the first one after a pass
		// absorbs the pass's teardown and is checked but not timed.
		for h := 0; h <= tab1PerPass; h++ {
			root := tr.start("op.hot", 0, req)
			sp := tr.start("sppbench.process", root, "")
			res := runProc(bin, "-exp", "tab1", "-par", "1")
			tr.end(sp, "")
			tr.end(root, "")
			if t.checkProc(res, tab1Digest) && tr == nil && h > 0 {
				st.hotMS = append(st.hotMS, res.wall.Seconds()*1e3)
				st.hotCPU = append(st.hotCPU, res.cpu.Seconds())
			}
		}
	}
	return st
}

func (w *simWorkload) run(e *env) (*report, error) {
	r := newReport(w.name, e.seed)
	var t tally
	st := w.loop(e, e.dur, &t)
	if e.tr == nil {
		r.host(&e.ref)
		r.setN("setup_s", median(r.norm(st.hotCPU)), len(st.hotCPU))
		r.setN("pass_cpu_s", median(r.norm(st.cpuS)), len(st.cpuS))
		r.setN("peak_rss_mb", median(st.rssMB), len(st.rssMB))
		r.setN("pass_s", median(st.passS), len(st.passS))
		r.setN("setup_wall_s", median(st.hotMS)/1e3, len(st.hotMS))
		if total := sum(st.passS); total > 0 {
			r.setN("jobs_per_s", float64(len(st.passS))/total, len(st.passS))
		}
		r.setPct("hot_p50_ms", st.hotMS, 0.50)
		r.setPct("hot_p99_ms", st.hotMS, 0.99)
		passMS := scale(st.passS, 1e3)
		r.setPct("cold_p50_ms", passMS, 0.50)
		r.setPct("cold_p90_ms", passMS, 0.90)
	} else {
		if p := median(st.passS); p > 0 && len(st.traced) > 0 {
			r.setN("trace.overhead_pct", (median(st.traced)/p-1)*100, len(st.traced))
		}
		w.probe(e, r, &t)
		reportSelfTimes(r, e.tr)
	}
	r.attempted, r.failed = t.attempted, t.failed
	for _, msg := range t.errs {
		r.problem("%s", msg)
	}
	return r, nil
}

// probe measures the simulator's layers from inside one process: each
// experiment of the pass through experiments.Run, the exact sim and PMU
// counts of a pass, and the workload's own layer (machine construction
// for paper-sim, the n-body numerics and runner for nbody-2m).
func (w *simWorkload) probe(e *env, r *report, t *tally) {
	var outs []string
	withProcs(w.par, func() {
		outs = inprocPass(r, e.tr, t, w.exps, experiments.Defaults(), "probe")
	})
	if got := digestOf([]byte(strings.Join(outs, ""))); got != w.digest {
		t.fail("in-process pass digest %s, want %s", got, w.digest)
	}
	for k, v := range pmuPass(e, t, w.exps, w.par, false) {
		r.set(k, float64(v))
	}
	checkCounts(r, w.counts)
	switch w.name {
	case "paper-sim":
		withProcs(w.par, func() { probeMachine(r, e.tr) })
	case "nbody-2m":
		withProcs(w.par, func() { probeNBody(r, e.tr, t) })
	}
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
