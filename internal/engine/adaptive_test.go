package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
)

// adaptiveTestMatrix mixes adaptive and pure policies so resume has to
// restore some runners' state and leave others alone.
func adaptiveTestMatrix() []sim.Config {
	const trigger = 32 * 1024
	return []sim.Config{
		{Policy: core.Bandit{Eps: 0.1}, TriggerBytes: trigger, Label: "eps", PolicySeed: 11},
		{Policy: core.Bandit{UCB: 1.5}, TriggerBytes: trigger, Label: "ucb", PolicySeed: 11},
		{Policy: core.Gradient{}, TriggerBytes: trigger, Label: "grad", PolicySeed: 11},
		{Policy: core.Full{}, TriggerBytes: trigger, Label: "full"},
		{Mode: sim.ModeLive},
	}
}

// TestAdaptiveResumeBitIdentical extends the checkpoint contract to
// state-carrying policies: an interrupted and resumed replay must
// finish with exactly the results of an uninterrupted one, learned
// state included, for break points at, before and strictly inside
// batch boundaries.
func TestAdaptiveResumeBitIdentical(t *testing.T) {
	events := testEvents(t)
	want, _, err := Replay(context.Background(), SliceSource(events), adaptiveTestMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}

	// The test trace is shorter than one 4096-event batch, so every
	// nonzero break point is strictly mid-batch for the batching source.
	for _, breakAt := range []int{0, 1, len(events) / 3, len(events) - 1} {
		injected := errors.New("transient read failure")
		_, cp, rerr := Replay(context.Background(), failAfter(events, breakAt, injected), adaptiveTestMatrix())
		if !errors.Is(rerr, injected) || cp == nil {
			t.Fatalf("breakAt %d: err %v, checkpoint %v", breakAt, rerr, cp)
		}
		got, cp2, rerr := cp.Resume(context.Background(), SliceSource(events))
		if rerr != nil || cp2 != nil {
			t.Fatalf("breakAt %d: Resume: %v (checkpoint %v)", breakAt, rerr, cp2)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("breakAt %d, %s: resumed adaptive result differs from uninterrupted run",
					breakAt, want[i].Collector)
			}
		}
	}
}

// TestAdaptiveResumeRestoresCheckpointState: the checkpoint's recorded
// policy state is authoritative. Corrupting the live instances between
// checkpoint and resume must not change the outcome, because Resume
// restores the snapshots taken at checkpoint time.
func TestAdaptiveResumeRestoresCheckpointState(t *testing.T) {
	events := testEvents(t)
	want, _, err := Replay(context.Background(), SliceSource(events), adaptiveTestMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}
	boom := errors.New("boom")
	breakAt := len(events) / 2
	cfgs := adaptiveTestMatrix()
	_, cp, _ := Replay(context.Background(), failAfter(events, breakAt, boom), cfgs)
	if cp == nil {
		t.Fatal("no checkpoint")
	}

	// Sabotage: overwrite every adaptive instance's live state with a
	// fresh foreign-seed run's state between checkpoint and resume.
	corrupted := 0
	for i, r := range cp.fleet.Runners() {
		inst := r.PolicyInstance()
		if inst == nil {
			continue
		}
		foreign := cfgs[i].Policy.(core.AdaptivePolicy).NewRun(0xDEAD).Snapshot()
		if err := inst.Restore(foreign); err != nil {
			t.Fatalf("runner %d: corrupting restore failed: %v", i, err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("matrix has no adaptive runners to corrupt")
	}

	got, cp2, rerr := cp.Resume(context.Background(), SliceSource(events))
	if rerr != nil || cp2 != nil {
		t.Fatalf("Resume: %v (checkpoint %v)", rerr, cp2)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: perturbed-then-resumed result differs — Resume trusted live state instead of the snapshot",
				want[i].Collector)
		}
	}
}

// TestAdaptiveResumeTwiceInterrupted: chained interrupts re-snapshot
// the state at each new checkpoint.
func TestAdaptiveResumeTwiceInterrupted(t *testing.T) {
	events := testEvents(t)
	want, _, err := Replay(context.Background(), SliceSource(events), adaptiveTestMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}
	boom := errors.New("boom")
	_, cp, _ := Replay(context.Background(), failAfter(events, 50, boom), adaptiveTestMatrix())
	if cp == nil {
		t.Fatal("first interrupt: no checkpoint")
	}
	_, cp, _ = cp.Resume(context.Background(), failAfter(events, len(events)/2, boom))
	if cp == nil {
		t.Fatal("second interrupt: no checkpoint")
	}
	got, cp, rerr := cp.Resume(context.Background(), SliceSource(events))
	if rerr != nil || cp != nil {
		t.Fatalf("final resume: %v (checkpoint %v)", rerr, cp)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: twice-resumed adaptive result differs from uninterrupted run", want[i].Collector)
		}
	}
}
