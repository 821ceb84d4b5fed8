package lint_test

import (
	"testing"

	"spp1000/internal/lint"
	"spp1000/internal/lint/linttest"
)

// fixmod is the shadow module (module path spp1000, like the real one)
// holding the golden fixtures.
const fixmod = "testdata/fixmod"

func TestDeterminism(t *testing.T) {
	linttest.Run(t, fixmod,
		[]string{"./internal/cache", "./internal/runner", "./cmd/tool",
			"./internal/sim"},
		lint.Determinism)
}

func TestSimTime(t *testing.T) {
	linttest.Run(t, fixmod, []string{"./internal/machine"}, lint.SimTime)
}

func TestCounterHandle(t *testing.T) {
	linttest.Run(t, fixmod,
		[]string{"./internal/counters", "./internal/memsys"},
		lint.CounterHandle)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, fixmod, []string{"./internal/service", "./cmd/tool"}, lint.CtxFlow)
}

func TestDeps(t *testing.T) {
	linttest.Run(t, fixmod,
		[]string{"./internal/store", "./internal/load", "./internal/rng"},
		lint.Deps)
}

// TestAllocFree covers both sides of the escape gate: compiler-reported
// escapes inside annotated bodies (./internal/hotpath), and a
// RequiredHotpaths function that has lost its annotation
// (./internal/resultcache). It shells out to `go build -gcflags=-m=2`.
func TestAllocFree(t *testing.T) {
	linttest.Run(t, fixmod,
		[]string{"./internal/hotpath", "./internal/resultcache"},
		lint.AllocFree)
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, fixmod, []string{"./internal/gateway"}, lint.LockOrder)
}

// TestLedger runs against its own shadow module so the fixture's docs/
// directory and reconcile package don't collide with the other fixtures.
func TestLedger(t *testing.T) {
	linttest.Run(t, "testdata/ledgermod", []string{"./..."}, lint.Ledger)
}

func TestSimPureLeaf(t *testing.T) {
	for path, want := range map[string]bool{
		"spp1000/internal/rng":     true,
		"spp1000/internal/rng/sub": true,
		"spp1000/internal/sim":     false,
		"spp1000/internal/load":    false,
		"rng":                      false,
	} {
		if got := lint.SimPureLeaf(path); got != want {
			t.Errorf("SimPureLeaf(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		path string
		want lint.Class
	}{
		{"spp1000/internal/sim", lint.ClassSimCore},
		{"spp1000/internal/apps/fem", lint.ClassSimCore},
		{"spp1000/internal/counters", lint.ClassSimCore},
		{"spp1000/internal/runner", lint.ClassHost},
		{"spp1000/internal/service", lint.ClassHost},
		{"spp1000/internal/resultcache", lint.ClassHost},
		{"spp1000/internal/store", lint.ClassHost},
		{"spp1000/internal/faultinject", lint.ClassHost},
		{"spp1000/internal/load", lint.ClassHost},
		{"spp1000/cmd/sppbench", lint.ClassExempt},
		{"spp1000/examples/quickstart", lint.ClassExempt},
		{"fmt", lint.ClassExempt},
		{"spp1000", lint.ClassExempt},
	}
	for _, c := range cases {
		if got := lint.Classify(c.path); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestTreeClean is the acceptance gate in miniature: the real module
// must type-check and produce zero unsuppressed findings, exactly as
// `make lint` requires.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
}
