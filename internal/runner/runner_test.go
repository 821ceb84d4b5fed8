package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	for _, w := range []int{1, 2, 4, 9} {
		got, err := MapCtx(context.Background(), w, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v; want nil, nil", got, err)
	}
}

func TestMapReportsLowestFailingIndex(t *testing.T) {
	sentinel := errors.New("boom")
	for _, w := range []int{1, 4} {
		_, err := MapCtx(context.Background(), w, 50, func(i int) (int, error) {
			if i == 7 || i == 33 {
				return 0, fmt.Errorf("%w at %d", sentinel, i)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", w, err)
		}
		if !strings.HasPrefix(err.Error(), "run 7:") {
			t.Fatalf("workers=%d: err = %v, want the lowest failing index (7)", w, err)
		}
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 1 {
		t.Skip("no cores")
	}
	var peak, cur atomic.Int64
	gate := make(chan struct{})
	_, err := MapCtx(context.Background(), 4, 4, func(i int) (int, error) {
		c := cur.Add(1)
		if c > peak.Load() {
			peak.Store(c)
		}
		if c == 4 {
			close(gate) // all four in flight together
		}
		<-gate
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 4 {
		t.Fatalf("peak concurrency %d, want 4", peak.Load())
	}
}

func TestWidth(t *testing.T) {
	if Width(3) != 3 {
		t.Fatalf("Width(3) = %d, want 3", Width(3))
	}
	for _, n := range []int{0, -5} {
		if Width(n) != runtime.GOMAXPROCS(0) {
			t.Fatalf("Width(%d) = %d, want GOMAXPROCS", n, Width(n))
		}
	}
}

func TestEach(t *testing.T) {
	var sum atomic.Int64
	if err := Each(4, 64, func(i int) error { sum.Add(int64(i)); return nil }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 64*63/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 64*63/2)
	}
	if err := Each(4, 3, func(i int) error { return errors.New("x") }); err == nil {
		t.Fatal("Each should surface errors")
	}
}

func TestMapCtxMatchesMap(t *testing.T) {
	for _, w := range []int{1, 4} {
		got, err := MapCtx(context.Background(), w, 32, func(i int) (int, error) { return i + 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		want, err := Map(32, func(i int) (int, error) { return i + 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: MapCtx diverges from Map at %d", w, i)
			}
		}
	}
}

func TestMapCtxCancelStopsDispatch(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var dispatched atomic.Int64
		const n = 1000
		_, err := MapCtx(ctx, w, n, func(i int) (int, error) {
			if dispatched.Add(1) == int64(w) {
				cancel() // cancel once every worker has claimed one point
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		// The in-flight points finish, but the queue must stop: far
		// fewer than n points may have been dispatched.
		if d := dispatched.Load(); d >= n {
			t.Fatalf("workers=%d: all %d points dispatched despite cancellation", w, d)
		}
	}
}

func TestMapCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 4, 16, func(i int) (int, error) { ran.Add(1); return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.HasPrefix(err.Error(), "run 0:") {
		t.Fatalf("err = %v, want the lowest undispatched index (0)", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d points ran under a pre-cancelled context", ran.Load())
	}
}

func TestSections(t *testing.T) {
	got, err := Sections(2,
		func() (string, error) { return "a", nil },
		func() (string, error) { return "b", nil },
		func() (string, error) { return "c", nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "") != "abc" {
		t.Fatalf("Sections = %v, want a,b,c in order", got)
	}
}
