package directives

import (
	"sort"
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/threads"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{Hypernodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// coverage checks that a schedule runs every iteration exactly once.
func coverage(t *testing.T, sched Schedule, iters, threadsN, chunk int) {
	t.Helper()
	m := newMachine(t)
	counts := make([]int, iters)
	_, err := For(m, Loop{
		Iters: iters, Threads: threadsN, Place: threads.HighLocality,
		Schedule: sched, Chunk: chunk,
	}, func(th *machine.Thread, i int) {
		counts[i]++
		th.ComputeCycles(50)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%v: iteration %d ran %d times", sched, i, c)
		}
	}
}

func TestSchedulesCoverAllIterations(t *testing.T) {
	for _, sched := range []Schedule{Static, Chunked, SelfScheduled} {
		coverage(t, sched, 97, 8, 3) // deliberately uneven
		coverage(t, sched, 16, 16, 1)
		coverage(t, sched, 5, 8, 2) // fewer iterations than threads
	}
}

func TestZeroIterations(t *testing.T) {
	m := newMachine(t)
	ran := false
	_, err := For(m, Loop{Iters: 0, Threads: 4, Schedule: Static},
		func(th *machine.Thread, i int) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("zero-iteration loop ran a body")
	}
}

func TestInvalidLoopRejected(t *testing.T) {
	m := newMachine(t)
	if _, err := For(m, Loop{Iters: 10, Threads: 0}, func(th *machine.Thread, i int) {}); err == nil {
		t.Fatal("zero threads should be rejected")
	}
	if _, err := For(m, Loop{Iters: -1, Threads: 2}, func(th *machine.Thread, i int) {}); err == nil {
		t.Fatal("negative iterations should be rejected")
	}
}

func TestStaticIterationOrderWithinThread(t *testing.T) {
	m := newMachine(t)
	var seq []int
	_, err := For(m, Loop{Iters: 12, Threads: 1, Schedule: Static},
		func(th *machine.Thread, i int) { seq = append(seq, i) })
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(seq) {
		t.Fatalf("single-thread loop out of order: %v", seq)
	}
}

func TestSelfScheduledBalancesSkewedWork(t *testing.T) {
	// One iteration is 20x heavier; self-scheduling should beat the
	// static split where one thread draws the heavy block plus its
	// share.
	weight := func(i int) int64 {
		if i < 8 {
			return 20000 // heavy head
		}
		return 1000
	}
	run := func(sched Schedule) int64 {
		m := newMachine(t)
		el, err := For(m, Loop{
			Iters: 64, Threads: 8, Place: threads.HighLocality,
			Schedule: sched, Chunk: 1,
		}, func(th *machine.Thread, i int) {
			th.ComputeCycles(weight(i))
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(el)
	}
	static := run(Static)
	dynamic := run(SelfScheduled)
	if dynamic >= static {
		t.Fatalf("self-scheduled (%d) should beat static (%d) on skewed work", dynamic, static)
	}
}

func TestReduceSum(t *testing.T) {
	m := newMachine(t)
	got, elapsed, err := ReduceSum(m, Loop{Iters: 1000, Threads: 8, Place: threads.HighLocality},
		func(i int) float64 { return float64(i) })
	if err != nil {
		t.Fatal(err)
	}
	want := 999.0 * 1000 / 2
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if elapsed <= 0 {
		t.Fatal("reduction took no time")
	}
	// Invalid loops rejected.
	if _, _, err := ReduceSum(newMachine(t), Loop{Iters: 10, Threads: 0}, func(i int) float64 { return 0 }); err == nil {
		t.Fatal("invalid loop should be rejected")
	}
}

func TestFalseSharingPenalty(t *testing.T) {
	shared, private, err := FalseSharing(nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(shared) / float64(private)
	// §3.2: "marked performance gains just by making scalar variables
	// thread private" — the shared variant ping-pongs the line.
	if ratio < 3 {
		t.Fatalf("false-sharing penalty = %.1fx, want marked (>3x); shared %v private %v",
			ratio, shared, private)
	}
}
