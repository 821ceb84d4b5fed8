// Command perfbench is the repository benchmark. It drives the product
// the way its users do — the sppbench binary for the simulator, sppd and
// sppgw over loopback HTTP for the service — checks every output, and
// prints every metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 30 --trace 0
//
// run.sh builds the binaries from the checkout it is run in and then
// execs this program. --trace 0 reports the end-to-end metrics; --trace 1
// is the separate traced run that reports the per-layer metrics. See
// BENCHMARK.md beside this file for the workloads and metric tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input set.
type workload interface {
	// run measures the workload for e.dur and returns its report.
	run(e *env) (*report, error)
}

var workloads = map[string]workload{
	"paper-sim":   paperSim,
	"nbody-2m":    nbody2M,
	"service-mix": serviceMix,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed; equal seeds replay identical inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	root := flag.String("root", ".", "repository checkout whose .bench_build/bin holds sppbench, sppd and sppgw")
	hostRef := flag.Bool("hostref", false, "run the fixed host reference work once, print its checksum and exit")
	flag.Parse()

	if *hostRef {
		fmt.Println(hostRefWork())
		return 0
	}

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	e, err := newEnv(*root, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer e.close()
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(e.buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := e.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", e.tr.len(), path)
	}
	if err := rep.print(os.Stdout, e.tr != nil); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
