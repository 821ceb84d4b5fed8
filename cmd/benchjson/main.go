// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so the performance
// trajectory (ns/op, allocs/op, and the simulators' custom sim-*
// metrics) can be recorded per PR and diffed across them — today by
// cmd/benchtrend, which gates on these artifacts.
//
// Usage:
//
//	go test -bench=. -benchmem -run=NONE ./... | benchjson > BENCH_1.json
//
// Schema version 2 (see docs/BENCHMARKS.md) stamps provenance — git
// commit, run timestamp, Go version, and the -par setting the run
// used — so every trend point is attributable to the code and
// configuration that produced it. Version-1 files (BENCH_1..BENCH_6)
// lack these fields; readers must treat a missing schema_version as 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package    string `json:"package,omitempty"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Gomaxprocs is the -N suffix go test appended to the name (the
	// procs the benchmark ran with); 0 when the line carried none.
	Gomaxprocs  int                `json:"gomaxprocs,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Output is the whole document.
type Output struct {
	// SchemaVersion identifies the field layout; absent in the v1
	// artifacts that predate provenance stamping.
	SchemaVersion int `json:"schema_version,omitempty"`
	// GitCommit, RunTimestamp (RFC 3339 UTC), and GoVersion attribute
	// the run; Par records the host-parallelism setting in effect, when
	// the caller passed it.
	GitCommit    string      `json:"git_commit,omitempty"`
	RunTimestamp string      `json:"run_timestamp,omitempty"`
	GoVersion    string      `json:"go_version,omitempty"`
	Par          int         `json:"par,omitempty"`
	GOOS         string      `json:"goos,omitempty"`
	GOARCH       string      `json:"goarch,omitempty"`
	CPU          string      `json:"cpu,omitempty"`
	Benchmarks   []Benchmark `json:"benchmarks"`
}

// schemaVersion is the layout this binary writes.
const schemaVersion = 2

func main() {
	par := flag.Int("par", 0, "host-parallelism setting the benchmarks ran with (stamped into the artifact; 0 omits)")
	commit := flag.String("commit", "", "git commit to stamp (default: git rev-parse HEAD, omitted if that fails)")
	flag.Parse()

	out := Output{
		SchemaVersion: schemaVersion,
		GitCommit:     *commit,
		RunTimestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		Par:           *par,
		Benchmarks:    []Benchmark{},
	}
	if out.GitCommit == "" {
		out.GitCommit = headCommit()
	}

	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Package = pkg
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// headCommit resolves the working tree's HEAD, or "" when not in a git
// checkout (the stamp is best-effort provenance, not a requirement).
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// parseLine parses one result line, e.g.
//
//	BenchmarkFig3Barrier-8  12  95104310 ns/op  1204 B/op  17 allocs/op  3.1 sim-us/global-RT
//
// Fields come in (value, unit) pairs after the name and iteration count.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	// Strip the -GOMAXPROCS suffix go test appends, preserving it as
	// the benchmark's recorded parallelism.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			procs = n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Gomaxprocs: procs}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}
