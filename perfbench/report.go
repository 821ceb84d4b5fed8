package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"spp1000/internal/load"
)

// metricDef is one reported metric: its name, unit and direction, as
// recorded in BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON keeps
// the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the product sees that the
// benchmark bounds, reported by the untraced run (--trace 0) of every
// workload. Their timings are CPU times in seconds of the reference
// machine (see hostRef): the wall times a user sees follow the other
// tenants of the shared host more than the program.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// printedOnly are end-to-end metrics the untraced run prints, as
// measured, but leaves out of the JSON line: the wall times and rates a
// user waits on. On the shared machine BENCHMARK.md describes, steal
// time moves them between runs by more than the largest regression
// bound a metric may have (0.25 of its median).
var printedOnly = []metricDef{
	{"setup_wall_s", "s", "lower"},
	{"pass_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"hot_p50_ms", "ms", "lower"},
	{"hot_p99_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
}

// selfTimeLayers are the span layers whose self time the traced run
// reports as trace.self_s.<layer>.
var selfTimeLayers = []string{"pass", "op", "sppbench", "experiments", "machine", "nbody", "runner", "service", "store", "gateway"}

// perLayer are the metrics of single layers, reported by the traced run
// (--trace 1). A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.fig2_s", "s", "lower"},
		{"experiments.fig3_s", "s", "lower"},
		{"experiments.fig4_s", "s", "lower"},
		{"experiments.tab1_s", "s", "lower"},
		{"experiments.fig6_s", "s", "lower"},
		{"experiments.fig7_s", "s", "lower"},
		{"experiments.tab2_s", "s", "lower"},
		{"experiments.fig8_s", "s", "lower"},
		{"experiments.alloc_mb", "MB", "lower"},
		{"experiments.gc_cycles", "count", "lower"},
		{"experiments.cold_run_ms", "ms", "lower"},
		{"machine.new_1hn_ms", "ms", "lower"},
		{"machine.new_2hn_ms", "ms", "lower"},
		{"machine.new_16hn_ms", "ms", "lower"},
		{"machine.new_2hn_mb", "MB", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.cycles", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
	}
	for _, c := range pmuCounters {
		defs = append(defs, metricDef{c.name, "count", "lower"})
	}
	defs = append(defs,
		metricDef{"nbody.count_workload_s", "s", "lower"},
		metricDef{"nbody.run_s", "s", "lower"},
		metricDef{"runner.parallel_efficiency", "ratio", "higher"},
		metricDef{"service.submit_key_us", "us", "lower"},
	)
	for _, c := range []string{"hot", "cold", "warm"} {
		defs = append(defs, metricDef{"service.submit_ms." + c, "ms", "lower"})
	}
	for _, c := range []string{"hot", "cold", "warm"} {
		defs = append(defs, metricDef{"service.result_ms." + c, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"service.polls_per_job", "count", "lower"},
		metricDef{"service.busy_s", "s", "lower"},
		metricDef{"service.queue_wait_ms", "ms", "lower"},
		metricDef{"service.dedup", "count", "higher"},
		metricDef{"service.rejected", "count", "lower"},
		metricDef{"resultcache.hit_ratio", "ratio", "higher"},
		metricDef{"resultcache.coalesced", "count", "higher"},
		metricDef{"resultcache.evictions", "count", "lower"},
		metricDef{"store.put_ms", "ms", "lower"},
		metricDef{"store.get_ms", "ms", "lower"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"store.warm_p50_ms", "ms", "lower"},
		metricDef{"store.errors", "count", "lower"},
		metricDef{"gateway.forward_overhead_ms", "ms", "lower"},
		metricDef{"gateway.list_ms", "ms", "lower"},
		metricDef{"gateway.ring_owner_us", "us", "lower"},
		metricDef{"gateway.backend_share_max", "ratio", "lower"},
		metricDef{"gateway.proxy_retries", "count", "lower"},
		metricDef{"gateway.evictions", "count", "lower"},
		metricDef{"gateway.unavailable", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	for _, l := range selfTimeLayers {
		defs = append(defs, metricDef{"trace.self_s." + l, "s", "lower"})
	}
	return defs
}()

// value is one measured metric value with the facts a reader needs to
// judge it.
type value struct {
	v    float64
	n    int    // samples behind a statistic (0: a single measurement)
	note string // e.g. whether a percentile has enough samples beyond it
}

// report collects one run's verdict and metric values.
type report struct {
	workload  string
	seed      uint64
	attempted int
	failed    int
	problems  []string // failed whole-run checks: determinism, reconciliation
	vals      map[string]value
	// factor is the run's host factor (see hostRef); the untraced run
	// divides the CPU times it bounds by it.
	factor float64
	refs   int // reference samples behind factor
}

func newReport(name string, seed uint64) *report {
	return &report{workload: name, seed: seed, vals: map[string]value{}, factor: 1}
}

// host takes the run's host factor from h and records any failure of
// the reference process.
func (r *report) host(h *hostRef) {
	r.factor, r.refs = h.factor(), len(h.cpu)
	for _, msg := range h.errs {
		r.problem("%s", msg)
	}
	if r.refs == 0 {
		r.problem("no host reference sample was taken")
	}
}

// norm converts CPU times on this host into CPU times on the reference
// machine.
func (r *report) norm(cpus []float64) []float64 { return scale(cpus, 1/r.factor) }

func (r *report) set(name string, v float64) { r.vals[name] = value{v: v} }

func (r *report) setN(name string, v float64, n int) { r.vals[name] = value{v: v, n: n} }

// setPct records the q-quantile of samples (nearest rank). Following
// the benchmark's rule, the note says whether at least ten samples lie
// beyond it; the value is reported either way.
func (r *report) setPct(name string, samples []float64, q float64) {
	v, beyond := quantile(samples, q)
	note := "counts"
	if beyond < 10 {
		note = fmt.Sprintf("does not count: %d samples beyond it, need 10", beyond)
	}
	r.vals[name] = value{v: v, n: len(samples), note: note}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// quantile returns the nearest-rank q-quantile of samples and how many
// samples lie strictly beyond its rank.
func quantile(samples []float64, q float64) (float64, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9)) // load.Percentile's nearest rank
	rank = max(1, min(rank, len(s)))
	return load.Percentile(s, q), len(s) - rank
}

func median(samples []float64) float64 {
	v, _ := quantile(samples, 0.5)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric (name, value, unit, sample count,
// note), the output-check verdict, and last the JSON summary line.
func (r *report) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	s := summary{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "workload %s  seed %d  trace %t\n", r.workload, r.seed, traced)
	shown := defs
	if !traced {
		shown = append(append([]metricDef(nil), defs...), printedOnly...)
	}
	for i, d := range shown {
		v, ok := r.vals[d.name]
		if !ok {
			v.note = "layer not exercised by this workload"
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.v)
		}
		line := fmt.Sprintf("  %-30s %14.6f %-6s", d.name, v.v, d.unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.note != "" {
			line += "  (" + v.note + ")"
		}
		fmt.Fprintln(w, line)
		if i < len(defs) {
			s.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
		}
	}
	if !traced {
		fmt.Fprintf(w, "  %-30s %14.6f %-6s n=%d  (setup_s and pass_cpu_s are CPU times divided by it)\n", "host_factor", r.factor, "ratio", r.refs)
	}
	ratio := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "  %-30s %14.6f %-6s n=%d\n", "fail_ratio", ratio, "ratio", r.attempted)
	s.Correct = r.failed == 0 && len(r.problems) == 0
	verdict := "PASS"
	if !s.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "output check: %s (%d attempted, %d failed)\n", verdict, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  check failed: %s\n", strings.TrimSpace(p))
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
