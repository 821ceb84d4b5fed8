package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"spp1000/internal/load"
	"spp1000/internal/service"
)

// TestMixReplayAndKeys: equal seeds replay identical op sequences and
// submit bodies, and no two (class, key) pairs share a content address.
func TestMixReplayAndKeys(t *testing.T) {
	for _, w := range []*serviceWorkload{serviceMix, clusterMix} {
		const seed, n = 7, 3000
		a, b := w.generator(seed), w.generator(seed)
		owner := map[string]load.Op{} // content address -> first (class, key)
		for i := 0; i < n; i++ {
			opA, opB := a.Next(), b.Next()
			if opA != opB {
				t.Fatalf("%s: op %d differs between equal seeds: %+v vs %+v", w.name, i, opA, opB)
			}
			if w.className(opA.Class) == "list" {
				continue
			}
			_, bodyA := w.spec(opA, seed)
			_, bodyB := w.spec(opB, seed)
			if !bytes.Equal(bodyA, bodyB) {
				t.Fatalf("%s: op %d bodies differ between equal seeds", w.name, i)
			}
			key, err := service.SubmitKey(bodyA)
			if err != nil {
				t.Fatalf("%s: op %d: %v", w.name, i, err)
			}
			prev, seen := owner[key]
			switch {
			case !seen:
				owner[key] = opA
			case prev.Class != opA.Class || prev.Key != opA.Key:
				t.Fatalf("%s: %v key %d and %v key %d share content address %s",
					w.name, prev.Class, prev.Key, opA.Class, opA.Key, key)
			case opA.Class != load.OpHot:
				t.Fatalf("%s: %v key %d repeated; only hot keys may repeat", w.name, opA.Class, opA.Key)
			}
		}
		// A different seed gives different cold specs.
		c := w.generator(seed + 1)
		op := c.Next()
		for op.Class != load.OpCold {
			op = c.Next()
		}
		_, other := w.spec(op, seed+1)
		_, same := w.spec(op, seed)
		if bytes.Equal(other, same) {
			t.Errorf("%s: cold spec does not depend on the seed", w.name)
		}
	}
}

// TestSegmentsStayWithinSetUp: each segment uses only the warm specs
// its set-up primed and adds no more jobs than the job table holds
// beside the hot jobs.
func TestSegmentsStayWithinSetUp(t *testing.T) {
	for _, w := range []*serviceWorkload{serviceMix, clusterMix} {
		gen := w.generator(3)
		for seg := 0; seg < 4; seg++ {
			warmFrom, jobs := seg*w.warmPerSegment(), 0
			for i := 0; i < w.segmentBatches*w.mix.Total(); i++ {
				op := gen.Next()
				switch w.className(op.Class) {
				case "warm":
					if op.Key < warmFrom || op.Key >= warmFrom+w.warmPerSegment() {
						t.Fatalf("%s segment %d: warm key %d outside the primed [%d, %d)", w.name, seg, op.Key, warmFrom, warmFrom+w.warmPerSegment())
					}
					jobs++
				case "cold":
					jobs++
				}
			}
			if jobs > jobTable-w.hotKeys {
				t.Fatalf("%s segment %d adds %d jobs; the table holds %d beside the hot jobs", w.name, seg, jobs, jobTable-w.hotKeys)
			}
		}
	}
}

// TestFig8ConfigsMatchExperiment: probeNBody sweeps the same
// (processors, hypernodes) points as experiments.fig8, whose table is
// read here from the experiments source.
func TestFig8ConfigsMatchExperiment(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../internal/experiments/experiments.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	ast.Inspect(f, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "fig8" {
			return true
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "cfgs" {
				return true
			}
			lit, ok := as.Rhs[0].(*ast.CompositeLit)
			if !ok {
				t.Fatalf("fig8's cfgs is not a literal table")
			}
			for _, el := range lit.Elts {
				pair, ok := el.(*ast.CompositeLit)
				if !ok || len(pair.Elts) != 2 {
					t.Fatalf("fig8's cfgs row %v is not a (p, hn) pair", el)
				}
				var row [2]int
				for i, x := range pair.Elts {
					b, ok := x.(*ast.BasicLit)
					if !ok || b.Kind != token.INT {
						t.Fatalf("fig8's cfgs row holds a non-literal")
					}
					row[i], _ = strconv.Atoi(b.Value)
				}
				got = append(got, row)
			}
			return false
		})
		return false
	})
	if len(got) == 0 {
		t.Fatal("no cfgs table found in experiments.fig8")
	}
	var want [][2]int
	for _, c := range fig8Configs {
		want = append(want, [2]int{c.p, c.hn})
	}
	if len(got) != len(want) {
		t.Fatalf("fig8 sweeps %v, probeNBody %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fig8 sweeps %v, probeNBody %v", got, want)
		}
	}
}

// TestWrongDigestIsAFailure: an output that does not match its recorded
// digest is counted as a failed operation and reported in the JSON
// line, not a crash.
func TestWrongDigestIsAFailure(t *testing.T) {
	var tl tally
	res := runProc("sh", "-c", "echo not the paper")
	if tl.checkProc(res, tab1Digest) {
		t.Fatal("wrong stdout passed the digest check")
	}
	if !tl.checkProc(runProc("sh", "-c", "printf ok"), digestOf([]byte("ok"))) {
		t.Fatal("matching stdout failed the digest check")
	}
	if tl.checkProc(runProc("sh", "-c", "exit 3"), digestOf(nil)) {
		t.Fatal("a non-zero exit passed")
	}

	// A service result with the wrong bytes.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("=== fig2 ===\nnot the figure\n"))
	}))
	defer srv.Close()
	c := newClient(nil)
	_, err := c.result(srv.URL, "k", "fig2", 0)
	st := newSvcStats()
	st.add(opResult{class: "hot", key: "k", err: err, ok: err == nil}, &tl)
	if err == nil {
		t.Fatal("wrong result bytes passed")
	}

	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", tl.attempted, tl.failed)
	}
	r := newReport("test", 1)
	r.attempted, r.failed = tl.attempted, tl.failed
	var out bytes.Buffer
	if err := r.print(&out, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Correct || s.Failed != 3 || s.Attempted != 4 || len(s.Metrics) != len(endToEnd) {
		t.Fatalf("summary %+v", s)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step
// with BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.hot", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "service.poll", Start: 30, End: 60},    // overlaps 2
		{ID: 4, Parent: 1, Name: "service.result", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	near := func(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }
	if got, want := self["op"], 40e-9; !near(got, want) { // 100 - (10..60) - (90..100)
		t.Errorf("op self %v, want %v", got, want)
	}
	if got, want := self["service"], 90e-9; !near(got, want) {
		t.Errorf("service self %v, want %v", got, want)
	}
}

func TestQuantileCounting(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := quantile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := quantile(xs[:100], 0.99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v with %d beyond, want 99 with 1", v, beyond)
	}
}

func TestParsePMU(t *testing.T) {
	out := []byte(`=== fig3 ===
body
PMU counters: fig3
  component        counter                  value
  ---------------- ------------------------ ------------
  directory.hn0    invalidations            300
  directory.hn1    invalidations            180
  directory.hn0    inval_fanout             n=59 sum=300 max=8 mean=5.08
  mem              accesses                 540
  ring             r0.packets               504
  ring             r1.packets               6
  xbar.hn0         grants                   432
`)
	got := parsePMU(out)
	want := map[string]int64{"directory.invalidations": 480, "mem.accesses": 540, "ring.packets": 510, "xbar.grants": 432, "sci.purges": 0}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

// TestHostRef: the reference work returns its recorded checksum, the
// host factor is the median reference CPU time over refNominal, CPU
// times are divided by it, and a run without a reference sample is not
// correct.
func TestHostRef(t *testing.T) {
	if got := strconv.FormatUint(hostRefWork(), 10); got != hostRefSum {
		t.Fatalf("hostRefWork checksum %s, want %s", got, hostRefSum)
	}
	h := hostRef{cpu: []float64{2 * refNominal, 5 * refNominal, 2 * refNominal}}
	r := newReport("test", 1)
	r.host(&h)
	if r.factor != 2 || r.refs != 3 || len(r.problems) != 0 {
		t.Fatalf("factor %v refs %d problems %v, want 2, 3, none", r.factor, r.refs, r.problems)
	}
	if got := r.norm([]float64{3, 4}); got[0] != 1.5 || got[1] != 2 {
		t.Fatalf("norm gave %v, want [1.5 2]", got)
	}
	r = newReport("test", 1)
	r.host(&hostRef{})
	if len(r.problems) == 0 {
		t.Fatal("a run without reference samples reported no problem")
	}
}
