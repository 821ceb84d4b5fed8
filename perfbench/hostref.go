package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"
)

// hostRefWork is a fixed piece of host work that no change to the
// program can alter: it is built from this directory alone. It mixes the
// kinds of work the program's host profile is made of — writing freshly
// mapped memory (page faults and zeroing, as in machine construction),
// allocating and walking a pointer tree (as in the n-body tree build),
// and sorting. It returns a checksum so that none of it is optimised
// away; equal builds return equal checksums.
func hostRefWork() uint64 {
	var sum uint64

	buf := make([]byte, 48<<20)
	for i := range buf {
		buf[i] = byte(i ^ i>>8)
	}
	for i := 0; i < len(buf); i += 4096 {
		sum += uint64(buf[i])
	}

	type node struct {
		key         uint64
		left, right *node
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var root *node
	for i := 0; i < 150_000; i++ {
		k := rng.Uint64()
		p := &root
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &node{key: k}
	}
	var walk func(n *node, depth uint64)
	walk = func(n *node, depth uint64) {
		for n != nil {
			sum += n.key>>60 + depth
			walk(n.left, depth+1)
			n, depth = n.right, depth+1
		}
	}
	walk(root, 0)

	xs := make([]float64, 400_000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	slices.Sort(xs)
	sum += uint64(xs[len(xs)/2] * 1e6)
	return sum
}

// hostRefSum is hostRefWork's checksum.
const hostRefSum = "6226878"

// refNominal is the median CPU time of one `perfbench -hostref`
// process on the machine the bounds in BENCHMARK.json were set on (a
// 2-vCPU Intel Xeon virtual machine, in a quiet spell).
const refNominal = 0.160

// refEvery is how often a run samples the reference: between operations,
// once at least this long has passed since the last sample.
const refEvery = time.Second

// hostRef samples the speed of the host a run is on. The host is a
// virtual machine shared with other tenants. Two things move the
// program's times there. Steal time — the hypervisor running another
// guest on this one's virtual CPU — stretches wall time but is not
// counted as CPU time, so the benchmark bounds CPU times. The host's
// speed also drifts over minutes, which stretches CPU time too, in the
// program and the reference alike; dividing the program's CPU times by
// the run's host factor, the median CPU time of the reference over
// refNominal, cancels that.
type hostRef struct {
	bin  string    // the perfbench binary, run with -hostref
	last time.Time // when the last sample ended
	cpu  []float64 // reference process CPU times, seconds
	errs []string
}

// tick runs the reference once if refEvery has passed since the last
// sample. Call it between operations, never during one.
func (h *hostRef) tick() {
	if time.Since(h.last) < refEvery {
		return
	}
	res := runProc(h.bin, "-hostref")
	h.last = time.Now()
	switch {
	case res.err != nil:
		h.errs = append(h.errs, res.err.Error())
	case strings.TrimSpace(string(res.stdout)) != hostRefSum:
		h.errs = append(h.errs, fmt.Sprintf("host reference checksum %q, want %s", bytes.TrimSpace(res.stdout), hostRefSum))
	default:
		h.cpu = append(h.cpu, res.cpu.Seconds())
	}
}

// factor is how many times slower than the reference machine the host
// ran during the samples taken: their median over refNominal.
func (h *hostRef) factor() float64 {
	if len(h.cpu) == 0 {
		return 1
	}
	return median(h.cpu) / refNominal
}
