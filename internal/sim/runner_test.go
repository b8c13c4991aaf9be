package sim

import (
	"math"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

func TestRunnerFeedAfterFinish(t *testing.T) {
	r := newSolo(t, Config{Mode: ModeNoGC})
	if err := feedOne(r, trace.Alloc(1, 8, 0)); err != nil {
		t.Fatal(err)
	}
	r.Finish()
	if err := feedOne(r, trace.Alloc(2, 8, 1)); err == nil {
		t.Fatal("FeedBatch after Finish accepted")
	}
}

func TestRunnerFinishIdempotent(t *testing.T) {
	r := newSolo(t, Config{Mode: ModeNoGC})
	if err := feedOne(r, trace.Alloc(1, 1024, 100)); err != nil {
		t.Fatal(err)
	}
	a := r.Finish()
	b := r.Finish()
	if a[0] != b[0] {
		t.Fatal("Finish not idempotent")
	}
}

func TestRunnerIncrementalUse(t *testing.T) {
	// Drive the runner by hand, interleaving inspection.
	r := newSolo(t, Config{Policy: core.Full{}, TriggerBytes: 2 * kb})
	b := trace.NewBuilder()
	for i := 0; i < 10; i++ {
		b.Advance(100)
		id := b.Alloc(kb)
		if i%2 == 1 {
			b.Free(id)
		}
	}
	for _, e := range b.Events() {
		if err := feedOne(r, e); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Finish()[0]
	if res.Collections != 5 {
		t.Fatalf("collections = %d, want 5", res.Collections)
	}
}

func TestTenuredGarbageMean(t *testing.T) {
	// Fixed1 on a tenure-then-die workload holds garbage; Full holds
	// almost none.
	events := churnTrace(600, kb, 15, 0)
	full := mustRun(t, events, tinyConfig(core.Full{}))
	fixed1 := mustRun(t, events, tinyConfig(core.Fixed{K: 1}))
	if fixed1.TenuredGarbageMeanBytes() <= full.TenuredGarbageMeanBytes() {
		t.Fatalf("Fixed1 tenured garbage %.0f not above Full's %.0f",
			fixed1.TenuredGarbageMeanBytes(), full.TenuredGarbageMeanBytes())
	}
	if full.TenuredGarbageMeanBytes() < 0 {
		t.Fatal("negative tenured garbage")
	}
	// Live mode holds exactly zero garbage.
	live := mustRun(t, events, Config{Mode: ModeLive})
	if math.Abs(live.TenuredGarbageMeanBytes()) > 1e-9 {
		t.Fatalf("Live mode garbage = %v", live.TenuredGarbageMeanBytes())
	}
}
