// Package runner is the host-parallel experiment engine: a worker pool
// that fans independent simulations out across the host's cores while
// keeping every observable output byte-identical to a serial run.
//
// Each (experiment, thread-count, problem-size) sweep point in this
// repository is an independent deterministic simulation on its own
// freshly built machine, so sweeps are embarrassingly parallel across
// the host — the same lever ScaleSimulator-style parallel simulators
// pull. Determinism is preserved by construction: workers only compute
// results into their own index slot; all rendering and accumulation
// happens in index order after the pool drains.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Width reports the pool width a run asking for n workers gets: n
// itself, or GOMAXPROCS when n <= 0. Width(1) recovers the exact serial
// execution order, which is useful for debugging and for the
// determinism tests that compare serial and parallel output.
func Width(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0), …, fn(n-1) on a GOMAXPROCS-wide pool and returns the
// results in index order. fn must be safe to call concurrently with
// itself — in this repository that holds because every sweep point
// builds its own machine. If any call fails, Map returns the error of
// the lowest failing index (matching what a serial loop would have
// surfaced first); results are discarded.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), 0, n, fn)
}

// MapCtx is Map with an explicit pool width (see Width) and
// cancellation: once ctx is done, no further indices are dispatched.
// Sweep points already executing run to completion (each is a
// self-contained deterministic simulation with no cancellation points
// inside), so cancelling stops the queue, not the in-flight work.
// Undispatched indices report ctx's error, so a cancelled MapCtx returns
// a non-nil error wrapping context.Canceled / DeadlineExceeded. With a
// never-cancelled ctx the results and errors are the same at every
// width — the byte-identical -par semantics.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	w := Width(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("run %d: %w", i, err)
			}
			v, err := fn(i)
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
	}
	return out, nil
}

// Each is MapCtx for side-effecting work with no result value and no
// cancellation.
func Each(workers, n int, fn func(i int) error) error {
	_, err := MapCtx(context.Background(), workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// Sections runs a set of heterogeneous independent stages — each
// rendering its own fragment — on a pool of the given width and returns
// the fragments in order. It is the pool-dispatch form of "run these
// report sections, then concatenate".
func Sections(workers int, fns ...func() (string, error)) ([]string, error) {
	return MapCtx(context.Background(), workers, len(fns), func(i int) (string, error) { return fns[i]() })
}
