package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// failAfter wraps a slice source to fail with err after emitting n
// events — a transient read error at an exact, resumable position.
func failAfter(events []trace.Event, n int, err error) Source {
	return Events(func(emit func(trace.Event) error) error {
		for i, e := range events {
			if i == n {
				return err
			}
			if eerr := emit(e); eerr != nil {
				return eerr
			}
		}
		return nil
	})
}

// TestResumeBitIdentical is the checkpoint contract: a replay
// interrupted by a source error and resumed from a reopened source
// finishes with results deeply equal to the uninterrupted run's —
// History, Pauses and telemetry-visible floats included.
func TestResumeBitIdentical(t *testing.T) {
	events := testEvents(t)
	cfgs := testMatrix()

	want, _, err := Replay(context.Background(), SliceSource(events), cfgs)
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}

	for _, breakAt := range []int{0, 1, len(events) / 2, len(events) - 1} {
		injected := fmt.Errorf("transient read failure")
		_, cp, rerr := Replay(context.Background(), failAfter(events, breakAt, injected), testMatrix())
		if !errors.Is(rerr, injected) {
			t.Fatalf("breakAt %d: error %v, want the injected one", breakAt, rerr)
		}
		if cp == nil {
			t.Fatalf("breakAt %d: no checkpoint for a between-events error", breakAt)
		}
		if cp.Events() != breakAt {
			t.Fatalf("breakAt %d: checkpoint at %d events", breakAt, cp.Events())
		}
		got, cp2, rerr := cp.Resume(context.Background(), SliceSource(events))
		if rerr != nil || cp2 != nil {
			t.Fatalf("breakAt %d: Resume: %v (checkpoint %v)", breakAt, rerr, cp2)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("breakAt %d, config %d (%s): resumed result differs from uninterrupted run",
					breakAt, i, want[i].Collector)
			}
		}
	}
}

// TestResumeTwiceInterrupted: a resume can itself be interrupted and
// resumed again; consistency survives chaining.
func TestResumeTwiceInterrupted(t *testing.T) {
	events := testEvents(t)
	want, _, err := Replay(context.Background(), SliceSource(events), testMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}
	boom := errors.New("boom")
	_, cp, rerr := Replay(context.Background(), failAfter(events, 50, boom), testMatrix())
	if cp == nil {
		t.Fatalf("first interrupt: no checkpoint (err %v)", rerr)
	}
	_, cp, rerr = cp.Resume(context.Background(), failAfter(events, 200, boom))
	if cp == nil {
		t.Fatalf("second interrupt: no checkpoint (err %v)", rerr)
	}
	if cp.Events() != 200 {
		t.Fatalf("second checkpoint at %d events, want 200", cp.Events())
	}
	got, cp, rerr := cp.Resume(context.Background(), SliceSource(events))
	if rerr != nil || cp != nil {
		t.Fatalf("final resume: %v (checkpoint %v)", rerr, cp)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: twice-resumed result differs from uninterrupted run", i)
		}
	}
}

// TestResumeAfterCancellation: context cancellation is a between-events
// abort, so it checkpoints; resuming under a fresh context completes.
func TestResumeAfterCancellation(t *testing.T) {
	events := testEvents(t)
	want, _, err := Replay(context.Background(), SliceSource(events), testMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, cp, rerr := Replay(ctx, SliceSource(events), testMatrix())
	if !errors.Is(rerr, context.Canceled) || cp == nil {
		t.Fatalf("cancelled replay: err %v, checkpoint %v", rerr, cp)
	}
	got, cp, rerr := cp.Resume(context.Background(), SliceSource(events))
	if rerr != nil || cp != nil {
		t.Fatalf("resume after cancel: %v (checkpoint %v)", rerr, cp)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: resumed-after-cancel result differs", i)
		}
	}
}

// TestFeedErrorNotResumable: a runner rejecting an event aborts
// mid-fan-out — some runners saw the event, some did not — so no
// checkpoint may be offered.
func TestFeedErrorNotResumable(t *testing.T) {
	bad := []trace.Event{{Kind: trace.KindFree, ID: 99, Instr: 1}} // free of an unknown object
	_, cp, err := Replay(context.Background(), SliceSource(bad), []sim.Config{{Policy: core.Full{}}})
	if err == nil {
		t.Fatal("feeding an invalid event succeeded")
	}
	if cp != nil {
		t.Fatalf("mid-event abort offered a checkpoint at %d events", cp.Events())
	}
}

// TestResumeSourceTooShort: a reopened source that ends (or fails)
// before reaching the checkpoint cannot continue the run and must say
// so rather than finishing early with a silently truncated replay.
func TestResumeSourceTooShort(t *testing.T) {
	events := testEvents(t)
	boom := errors.New("boom")
	_, cp, _ := Replay(context.Background(), failAfter(events, 100, boom), testMatrix())
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	if _, _, err := cp.Resume(context.Background(), SliceSource(events[:50])); err == nil {
		t.Fatal("resume from a 50-event source reached a 100-event checkpoint")
	}
	// A short source that fails before the checkpoint is not resumable
	// either: the new checkpoint would precede the old one.
	_, cp2, err := Replay(context.Background(), failAfter(events, 100, boom), testMatrix())
	if cp2 == nil {
		t.Fatalf("no checkpoint: %v", err)
	}
	if _, cp3, err := cp2.Resume(context.Background(), failAfter(events, 40, boom)); err == nil || cp3 != nil {
		t.Fatalf("source failing before the checkpoint: err %v, checkpoint %v", err, cp3)
	}
}

// TestReplayUnchangedByRefactor: Replay returns the feed error
// labelled with the collector, per its documented contract, wrapping
// exactly the error a solo run reports for the same event, and offers
// no checkpoint for it.
func TestReplayUnchangedByRefactor(t *testing.T) {
	bad := []trace.Event{{Kind: trace.KindFree, ID: 7, Instr: 1}}
	cfg := sim.Config{Policy: core.Full{}}
	_, cp, err := Replay(context.Background(), SliceSource(bad), []sim.Config{cfg})
	if err == nil || cp != nil {
		t.Fatalf("unexpected: err %v, checkpoint %v", err, cp)
	}
	_, solo := sim.Run(bad, cfg)
	if inner := errors.Unwrap(err); solo == nil || inner == nil || inner.Error() != solo.Error() {
		t.Fatalf("feed error %q does not wrap the solo run's error %v", err, solo)
	}
	if want := "Full: "; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("feed error %q lost its collector label", err)
	}
}
