// End-to-end reconcile: a real internal/service daemon (stub runner,
// real queue, dedup, cancel, deadline, and metric books) under the full
// workload mix, with the client's tallies held against the server's
// /metrics deltas — exact equality, run under -race by tier-1.
//
// This file may import internal/service: simlint's deps analyzer only
// classifies non-test sources, so the harness package itself stays
// sim-independent while its tests measure the real host stack.
package load_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/load"
	"spp1000/internal/machine"
	"spp1000/internal/service"
)

// seedFor namespaces content addresses per class so a cancel can never
// land on a cold job's key — the same scheme cmd/sppload uses.
func seedFor(op load.Op) uint64 {
	switch op.Class {
	case load.OpHot:
		return 1 + uint64(op.Key)
	case load.OpCold:
		return 1_000_000 + uint64(op.Key)
	case load.OpCancel:
		return 2_000_000 + uint64(op.Key)
	case load.OpTimeout:
		return 3_000_000 + uint64(op.Key)
	}
	return 0
}

// testBody renders ops against the stub runner's vocabulary; timeout
// ops carry the impossible 1ns execution deadline the Body contract
// demands.
func testBody(op load.Op) []byte {
	timeout := ""
	if op.Class == load.OpTimeout {
		timeout = `,"timeout":"1ns"`
	}
	return []byte(fmt.Sprintf(
		`{"experiments":["tab1"],"options":{"seed":%d}%s}`, seedFor(op), timeout))
}

func TestE2EReconcileAgainstLiveService(t *testing.T) {
	srv := service.New(service.Config{
		Workers: 4,
		Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
			// A few hundred microseconds of honest work so cancels can
			// race submits both ways; respects ctx like the real runner.
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(time.Duration(200+spec.Options.Seed%7*100) * time.Microsecond):
				return fmt.Sprintf("result seed=%d", spec.Options.Seed), nil
			}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	res, err := load.Run(load.Config{
		BaseURL: ts.URL,
		Mix:     load.DefaultMix(),
		Stages:  []load.Stage{{Workers: 1, Ops: 30}, {Workers: 4, Ops: 90}, {Workers: 8, Ops: 120}},
		HotKeys: 5,
		ZipfS:   1.1,
		Seed:    11,
		Body:    testBody,
		// Tight polling: the stub completes in microseconds.
		PollInterval: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	if !res.Reconcile.OK {
		t.Fatalf("client tallies do not equal server books:\n%stally: %+v\ndelta: %v",
			res.Reconcile.Failures(), res.Tally, res.ServerDelta)
	}

	// The mix must have actually exercised every path it claims to:
	// 240 ops at the default mix = 96 hot / 72 cold / 24 each of
	// cancel, timeout, malformed.
	tl := res.Tally
	if tl.SubmitBad400 != 0 {
		t.Fatalf("tally counted %d malformed submits as SubmitBad400; malformed ops are tracked per class", tl.SubmitBad400)
	}
	accepted := tl.SubmitOK200 + tl.SubmitAccepted202
	if accepted != 216 { // all but the 24 malformed
		t.Fatalf("accepted %d submits, want 216 (tally %+v)", accepted, tl)
	}
	if tl.DistinctAccepted != 5+72+24+24 {
		t.Fatalf("distinct keys %d, want 125 (5 hot + 72 cold + 24 cancel + 24 timeout)", tl.DistinctAccepted)
	}
	if accepted <= tl.DistinctAccepted {
		t.Fatalf("no dedup observed: accepted %d <= distinct %d", accepted, tl.DistinctAccepted)
	}
	if tl.Timeout != 24 {
		t.Fatalf("timeout-class jobs reached %d timeouts, want 24 (tally %+v)", tl.Timeout, tl)
	}
	// Cancels race the 4-worker pool: each lands canceled or, losing
	// the race, done — both legitimate, and the books must agree either
	// way (reconcile above already proved they do).
	if tl.Canceled+tl.Done != tl.DistinctAccepted-tl.Timeout-tl.Failed {
		t.Fatalf("status sum broken: %+v", tl)
	}
	if tl.Failed != 0 {
		t.Fatalf("%d jobs failed under a healthy stub", tl.Failed)
	}

	// Report shape: all five classes sampled, ladder filled in, and the
	// malformed class answered 400 every time.
	if len(res.Classes) != 5 {
		t.Fatalf("class stats for %d classes, want 5: %+v", len(res.Classes), res.Classes)
	}
	for _, cs := range res.Classes {
		if cs.Ops == 0 || cs.P50MS < 0 || cs.MaxMS < cs.P50MS {
			t.Fatalf("degenerate stats for %s: %+v", cs.Class, cs)
		}
		if cs.Class == "malformed" && cs.Outcomes["400"] != 24 {
			t.Fatalf("malformed outcomes %v, want 24 x 400", cs.Outcomes)
		}
	}
	if len(res.Stages) != 3 || res.SaturationOpsPerSec <= 0 {
		t.Fatalf("ladder: %+v (saturation %v)", res.Stages, res.SaturationOpsPerSec)
	}
	if res.Stages[0].Speedup != 1 {
		t.Fatalf("anchor rung speedup %v, want 1", res.Stages[0].Speedup)
	}
}

// The reconciler must also hold against a server whose queue rejects:
// a 1-deep queue with a slow single worker forces 503s, which the
// client books as rejected and the server's counter must match.
func TestE2EReconcileUnderRejection(t *testing.T) {
	srv := service.New(service.Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(2 * time.Millisecond):
				return "slow", nil
			}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	res, err := load.Run(load.Config{
		BaseURL: ts.URL,
		Mix:     load.Mix{Cold: 1},
		Stages:  []load.Stage{{Workers: 8, Ops: 64}},
		Seed:    5,
		Body:    testBody,
		// Wide spacing between polls keeps the queue saturated longer.
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reconcile.OK {
		t.Fatalf("reconcile under rejection:\n%stally: %+v", res.Reconcile.Failures(), res.Tally)
	}
	if res.Tally.SubmitRejected503 == 0 {
		t.Skip("queue never filled on this host; rejection path not exercised")
	}
}
