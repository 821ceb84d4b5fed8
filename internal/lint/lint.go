// Package lint is the simulator's invariant checker: a small, dependency-free
// reimplementation of the go/analysis pattern (golang.org/x/tools is not
// vendored) that type-checks the module with the standard library and runs a
// suite of repo-specific analyzers over it.
//
// The suite machine-checks the properties every number in this reproduction
// rests on and that the compiler cannot see:
//
//   - determinism: sim-core packages must be a pure function of their inputs —
//     no wall-clock reads, no global math/rand, no unordered map iteration,
//     no goroutine spawns outside internal/runner.
//   - simtime: virtual time (sim.Cycles) must never mix with host wall-clock
//     time (time.Duration / time.Time).
//   - counterhandle: the internal/counters handles keep their documented
//     zero-alloc nil-safe disabled path.
//   - ctxflow: a function that receives a context.Context forwards it instead
//     of minting context.Background/TODO.
//   - deps: sim-independent infrastructure (internal/store,
//     internal/faultinject) must not import sim-core packages.
//   - allocfree: //simlint:hotpath functions stay free of heap escapes,
//     verified against the compiler's own escape analysis
//     (go build -gcflags=-m=2), and the RequiredHotpaths inventory keeps
//     the annotations themselves from silently disappearing.
//   - lockorder: the interprocedural sync.Mutex/RWMutex acquisition graph
//     over host packages has no cycles (no ABBA deadlocks, no
//     reacquisition self-deadlocks).
//   - ledger: every metric name an annotated //simlint:metrics-writer
//     emits appears in the reconcile equations (internal/load or the
//     metrics tests) and in the docs, and every name the reconcile side
//     references is actually emitted.
//
// Findings are suppressed line-by-line with
//
//	//simlint:allow <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line above, or file-wide with
// //simlint:allow-file. A directive without a reason is itself a finding.
// See docs/LINT.md for the full contract and cmd/simlint for the driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer checks one repo invariant over a type-checked package. It is
// the local analogue of golang.org/x/tools/go/analysis.Analyzer. An analyzer
// sets Run, RunModule, or both: Run sees one package at a time, RunModule sees
// the whole loaded package set at once (for cross-package properties such as
// the lock graph or the metrics ledger).
type Analyzer struct {
	// Name identifies the analyzer in output and in //simlint:allow
	// directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run checks one package, reporting findings through the Pass. May be
	// nil for module-only analyzers.
	Run func(*Pass) error
	// RunModule checks the loaded package set as a whole, reporting
	// findings through the ModulePass. May be nil for per-package
	// analyzers. It runs once per lint invocation, after the per-package
	// passes.
	RunModule func(*ModulePass) error
}

// A Pass connects one Analyzer run to one Package and collects its findings.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at an already-resolved file position — the
// entry point for analyzers that attribute diagnostics produced outside
// the type-checker (the allocfree analyzer repositions the compiler's
// own escape diagnostics).
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ModulePass connects one module-wide Analyzer run to the whole loaded
// package set. All packages of one Load share a FileSet, so positions
// resolve uniformly regardless of which package a node came from.
type ModulePass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Pkgs is every loaded package, in import-path order.
	Pkgs []*Package

	fset   *token.FileSet
	report func(Diagnostic)
}

// Reportf records a finding at pos (resolved against the shared FileSet).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at an already-resolved file position.
func (p *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a position, the analyzer that produced it, and
// the message.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced the finding (the name used
	// in //simlint:allow directives), or "simlint" for malformed directives.
	Analyzer string
	// Message states the violated invariant.
	Message string
}

// String formats the diagnostic as "file:line:col: message (analyzer)".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, SimTime, CounterHandle, CtxFlow, Deps, AllocFree, LockOrder, Ledger}
}

// Run executes the analyzers over the packages, applies the //simlint:allow
// suppressions, and returns the surviving findings sorted by position.
// Per-package passes run first (package by package), then each analyzer's
// module-wide pass over the full set; one suppression table spanning every
// loaded file filters both kinds of finding identically.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allow := newAllowTable()
	for _, pkg := range pkgs {
		malformed := collectAllows(pkg, allow)
		diags = append(diags, malformed...)
	}
	var raw []Diagnostic
	record := func(d Diagnostic) { raw = append(raw, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, report: record}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil || len(pkgs) == 0 {
			continue
		}
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs, fset: pkgs[0].Fset, report: record}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s (module pass): %w", a.Name, err)
		}
	}
	for _, d := range raw {
		if !allow.allows(d) {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or nil
// for builtins, function values, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isNamedType reports whether t (after unaliasing) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
