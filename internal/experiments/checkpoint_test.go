package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/snapshot"
)

// TestCheckpointKillAtEveryBoundary is the resume-exactness gate from
// the checkpoint PR: a run killed at ANY checkpoint boundary and resumed
// must produce byte-identical outputs and exactly equal sim-cycle/event
// and PMU counter totals versus an uninterrupted run — at -par 1, 2,
// and 4, under -race (`make checkpoint` / `make faultmatrix`). fig6
// fans its sweep points out over the runner pool, so the wider levels
// really run simulations concurrently. The final-checkpoint byte
// equality is the strongest form: outputs, sim totals, counter
// snapshot, and region signatures all live inside the encoding, so one
// bytes.Equal covers the whole contract.
func TestCheckpointKillAtEveryBoundary(t *testing.T) {
	o := Quick()
	names := []string{"fig2", "tab1", "fig6"}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("par%d", workers), func(t *testing.T) {
			env := &machine.Env{Workers: workers}

			// Uninterrupted reference, recording the checkpoint bytes at
			// every boundary — these are the states a kill could leave.
			var boundaries [][]byte
			refOuts, refFinal, err := RunCheckpointed(context.Background(), env, names, o, nil, 1,
				func(c *snapshot.Checkpoint) error {
					boundaries = append(boundaries, c.Encode())
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(boundaries) != len(names) {
				t.Fatalf("%d boundary checkpoints for %d experiments", len(boundaries), len(names))
			}
			refBytes := refFinal.Encode()

			for b, raw := range boundaries {
				prior, err := snapshot.DecodeCheckpoint(raw)
				if err != nil {
					t.Fatalf("boundary %d: %v", b, err)
				}
				outs, final, err := RunCheckpointed(context.Background(), env, names, o, prior, 1, nil)
				if err != nil {
					t.Fatalf("resume from boundary %d: %v", b, err)
				}
				if got, want := strings.Join(outs, "\x00"), strings.Join(refOuts, "\x00"); got != want {
					t.Fatalf("boundary %d: resumed outputs diverge from the uninterrupted run", b)
				}
				if final.SimCycles != refFinal.SimCycles || final.SimEvents != refFinal.SimEvents {
					t.Fatalf("boundary %d: resumed totals (cycles=%d events=%d), uninterrupted (cycles=%d events=%d)",
						b, final.SimCycles, final.SimEvents, refFinal.SimCycles, refFinal.SimEvents)
				}
				if !bytes.Equal(final.Encode(), refBytes) {
					t.Fatalf("boundary %d: resumed final checkpoint is not byte-identical to the uninterrupted run's", b)
				}
			}
		})
	}
}

// The checkpoint cadence: every=2 over three experiments saves at the
// second boundary and at completion, never in between.
func TestCheckpointEveryCadence(t *testing.T) {
	o := Quick()
	names := []string{"fig2", "fig3", "fig4"}
	var saved []int
	_, _, err := RunCheckpointed(context.Background(), nil, names, o, nil, 2,
		func(c *snapshot.Checkpoint) error {
			saved = append(saved, len(c.Done))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 || saved[0] != 2 || saved[1] != 3 {
		t.Fatalf("save boundaries %v, want [2 3]", saved)
	}
}

// A checkpoint for a different spec (other names or options) must be
// refused, never silently spliced into the wrong run.
func TestCheckpointSpecKeyMismatch(t *testing.T) {
	o := Quick()
	_, cp, err := RunCheckpointed(context.Background(), nil, []string{"fig2"}, o, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCheckpointed(context.Background(), nil, []string{"fig2", "fig3"}, o, cp, 1, nil); err == nil {
		t.Fatal("checkpoint for another suite accepted")
	}
	other := Quick()
	other.AppSteps++
	if _, _, err := RunCheckpointed(context.Background(), nil, []string{"fig2"}, other, cp, 1, nil); err == nil {
		t.Fatal("checkpoint for other options accepted")
	}
}

// A canceled context surfaces the completed-prefix checkpoint alongside
// the error, with the in-flight experiment discarded.
func TestCheckpointCancelKeepsPrefix(t *testing.T) {
	o := Quick()
	names := []string{"fig2", "fig3"}
	ctx, cancel := context.WithCancel(context.Background())
	_, cp, err := RunCheckpointed(ctx, nil, names, o, nil, 1,
		func(c *snapshot.Checkpoint) error {
			cancel() // killed right after the first boundary
			return nil
		})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if len(cp.Done) != 1 || cp.Done[0].Name != "fig2" {
		t.Fatalf("prefix %v, want the completed fig2 only", cp.Done)
	}
	// The prefix resumes to exactly the uninterrupted result.
	refOuts, _, err := RunCheckpointed(context.Background(), nil, names, o, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := RunCheckpointed(context.Background(), nil, names, o, cp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(outs, "\x00") != strings.Join(refOuts, "\x00") {
		t.Fatal("resumed outputs diverge from the uninterrupted run")
	}
}

// A failing save aborts the run with the checkpoint it could not persist.
func TestCheckpointSaveErrorPropagates(t *testing.T) {
	boom := errors.New("disk full")
	_, _, err := RunCheckpointed(context.Background(), nil, []string{"fig2"}, Quick(), nil, 1,
		func(c *snapshot.Checkpoint) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the save error", err)
	}
}

// TestCheckpointConcurrentRunsExact: a checkpointed run records exactly
// its own work, whatever else the process runs at the same time. Quick
// fig2 is checkpointed 20 times while a goroutine keeps running fig3;
// every final checkpoint — sim totals, counter snapshot and region
// signature — must be byte-identical to fig2's serial one.
func TestCheckpointConcurrentRunsExact(t *testing.T) {
	o := Quick()
	names := []string{"fig2"}
	_, ref, err := RunCheckpointed(context.Background(), nil, names, o, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.SimCycles != 363800 || ref.SimEvents != 935 {
		t.Fatalf("serial fig2 recorded cycles=%d events=%d, want 363800/935", ref.SimCycles, ref.SimEvents)
	}
	want := ref.Encode()

	stop := make(chan struct{})
	noise := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				noise <- nil
				return
			default:
			}
			if _, err := Run("fig3", o); err != nil {
				noise <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-noise; err != nil {
			t.Errorf("concurrent fig3: %v", err)
		}
	}()

	for i := 0; i < 20; i++ {
		env := &machine.Env{Workers: 2}
		_, cp, err := RunCheckpointed(context.Background(), env, names, o, nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cp.SimCycles != ref.SimCycles || cp.SimEvents != ref.SimEvents {
			t.Fatalf("run %d: recorded cycles=%d events=%d beside fig3, serial %d/%d",
				i, cp.SimCycles, cp.SimEvents, ref.SimCycles, ref.SimEvents)
		}
		if env.SimCycles() != ref.SimCycles || env.SimEvents() != ref.SimEvents {
			t.Fatalf("run %d: caller's Env holds cycles=%d events=%d, want %d/%d",
				i, env.SimCycles(), env.SimEvents(), ref.SimCycles, ref.SimEvents)
		}
		if !bytes.Equal(cp.Encode(), want) {
			t.Fatalf("run %d: checkpoint (counters or region digest) differs from the serial run's", i)
		}
	}
}
