package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"spp1000/internal/rng"
)

func TestTimeConversions(t *testing.T) {
	if Micros(1) != 100 {
		t.Fatalf("Micros(1) = %d, want 100 cycles", Micros(1))
	}
	if Micros(3.5) != 350 {
		t.Fatalf("Micros(3.5) = %d, want 350", Micros(3.5))
	}
	if Nanos(10) != 1 {
		t.Fatalf("Nanos(10) = %d, want 1 cycle", Nanos(10))
	}
	if got := Time(350).Micros(); got != 3.5 {
		t.Fatalf("(350 cycles).Micros() = %v, want 3.5", got)
	}
	if got := Time(1e9).Seconds(); got != 10 {
		t.Fatalf("(1e9 cycles).Seconds() = %v, want 10", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{50, "50cy"},
		{350, "3.50us"},
		{250000, "2.500ms"},
		{2e9, "20.0000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Time
	for _, at := range []Time{50, 10, 30, 10, 90, 0} {
		at := at
		k.At(at, func() { order = append(order, at) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 6 {
		t.Fatalf("fired %d events, want 6", len(order))
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(42, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	k := NewKernel()
	var fired Time = -1
	k.At(100, func() {
		k.At(10, func() { fired = k.Now() }) // in the past
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestProcDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("p", func(p *Proc) {
		p.Delay(Micros(5))
		at1 = p.Now()
		p.Delay(Micros(2.5))
		at2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 500 || at2 != 750 {
		t.Fatalf("delays landed at %d,%d, want 500,750", at1, at2)
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var started Time
	k.SpawnAt(Micros(7), "late", func(p *Proc) { started = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 700 {
		t.Fatalf("SpawnAt started at %d, want 700", started)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10)
				log = append(log, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	k := NewKernel()
	sem := k.NewSemaphore("s", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			sem.P(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Delay(100)
			inside--
			sem.V()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("semaphore admitted %d procs at once, want 1", maxInside)
	}
	if k.Now() != 400 {
		t.Fatalf("serialized critical sections should end at 400, got %d", k.Now())
	}
}

func TestSemaphoreCounting(t *testing.T) {
	k := NewKernel()
	sem := k.NewSemaphore("s", 2)
	var done Time
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			sem.P(p)
			p.Delay(100)
			sem.V()
			done = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 200 {
		t.Fatalf("count-2 semaphore over 4x100cy jobs should finish at 200, got %d", done)
	}
}

func TestMutexBlocksAndReleases(t *testing.T) {
	k := NewKernel()
	m := k.NewMutex("m")
	var order []string
	k.Spawn("first", func(p *Proc) {
		m.Lock(p)
		p.Delay(50)
		order = append(order, "first")
		m.Unlock()
	})
	k.Spawn("second", func(p *Proc) {
		p.Delay(1)
		m.Lock(p)
		order = append(order, "second")
		m.Unlock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("mutex ordering wrong: %v", order)
	}
}

func TestEventBroadcast(t *testing.T) {
	k := NewKernel()
	ev := k.NewEvent("go")
	released := make([]Time, 0, 3)
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			ev.Wait(p)
			released = append(released, p.Now())
		})
	}
	k.Spawn("setter", func(p *Proc) {
		p.Delay(Micros(1))
		ev.Set()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(released) != 3 {
		t.Fatalf("released %d waiters, want 3", len(released))
	}
	for _, at := range released {
		if at != 100 {
			t.Fatalf("waiter released at %d, want 100", at)
		}
	}
	if !ev.IsSet() {
		t.Fatal("event should remain set")
	}
	ev.Reset()
	if ev.IsSet() {
		t.Fatal("event should be clear after Reset")
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(10)
			q.Put(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("queue not FIFO: %v", got)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	sem := k.NewSemaphore("never", 0)
	k.Spawn("stuck", func(p *Proc) { sem.P(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

// Property: for any batch of event times, execution order is a stable sort
// by time, and the clock is monotonically non-decreasing.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		k := NewKernel()
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, ut := range times {
			i, at := i, Time(ut)
			k.At(at, func() { fired = append(fired, rec{k.Now(), i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		var prev rec
		for i, r := range fired {
			if r.at != Time(times[r.idx]) {
				return false // fired at wrong time
			}
			if i > 0 {
				if r.at < prev.at {
					return false // clock went backwards
				}
				if r.at == prev.at && r.idx < prev.idx {
					return false // equal-time events out of FIFO order
				}
			}
			prev = r
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N procs doing random-length delay chains always finish at the
// sum of their own delays, independent of interleaving.
func TestProcIsolationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		k := NewKernel()
		n := 2 + rnd.Intn(6)
		want := make([]Time, n)
		got := make([]Time, n)
		for i := 0; i < n; i++ {
			i := i
			steps := 1 + rnd.Intn(8)
			delays := make([]Time, steps)
			for j := range delays {
				delays[j] = Time(rnd.Intn(1000))
				want[i] += delays[j]
			}
			k.Spawn("p", func(p *Proc) {
				for _, d := range delays {
					p.Delay(d)
				}
				got[i] = p.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTotalCyclesAccounting: the process-wide cycle counter advances by
// exactly the virtual time a kernel covers, and repeated Run calls on
// one kernel never double-count.
func TestTotalCyclesAccounting(t *testing.T) {
	k := NewKernel()
	k.At(120, func() {})
	before := TotalCycles()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalCycles() - before; d != 120 {
		t.Fatalf("after first Run: accounted %d cycles, want 120", d)
	}
	k.At(250, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalCycles() - before; d != 250 {
		t.Fatalf("after second Run: accounted %d cycles, want 250 total", d)
	}
	// Running again with nothing scheduled adds nothing.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalCycles() - before; d != 250 {
		t.Fatalf("idle Run changed the account to %d", d)
	}
}

// TestPerKernelAccounting: the process-wide TotalEvents and TotalCycles
// are sums over kernels — two kernels run back to back each add their
// own work, and idle re-runs add nothing further.
func TestPerKernelAccounting(t *testing.T) {
	k1, k2 := NewKernel(), NewKernel()
	for _, at := range []Time{10, 20, 30} {
		k1.At(at, func() {})
	}
	k2.At(5, func() {})

	events, cycles := TotalEvents(), TotalCycles()
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalEvents() - events; d != 4 {
		t.Fatalf("TotalEvents advanced by %d, want 4 (sum over kernels)", d)
	}
	if d := TotalCycles() - cycles; d != 35 {
		t.Fatalf("TotalCycles advanced by %d, want 35 (sum over kernels)", d)
	}
	// Idle re-runs account nothing further.
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalEvents() - events; d != 4 {
		t.Fatalf("idle Run changed the event account to %d", d)
	}
	if d := TotalCycles() - cycles; d != 35 {
		t.Fatalf("idle Run changed the cycle account to %d", d)
	}
}
