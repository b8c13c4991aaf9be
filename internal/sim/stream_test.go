package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

func TestRunReaderMatchesRun(t *testing.T) {
	events := churnTrace(800, kb, 9, 7)
	for _, cfg := range []Config{
		{Policy: core.Full{}, TriggerBytes: 10 * kb},
		{Policy: core.DtbFM{TraceMax: 5 * kb}, TriggerBytes: 10 * kb},
		{Mode: ModeNoGC},
		{Mode: ModeLive},
	} {
		direct, err := Run(events, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, events); err != nil {
			t.Fatal(err)
		}
		streamed, err := RunReader(trace.NewReader(&buf), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Results must be identical, curve pointers aside.
		if direct.MemMeanBytes != streamed.MemMeanBytes ||
			direct.MemMaxBytes != streamed.MemMaxBytes ||
			direct.TracedTotalBytes != streamed.TracedTotalBytes ||
			direct.Collections != streamed.Collections ||
			!reflect.DeepEqual(direct.Pauses, streamed.Pauses) {
			t.Fatalf("%s: streamed result diverged from in-memory result", direct.Collector)
		}
	}
}

func TestRunReaderPropagatesDecodeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, churnTrace(50, kb, 2, 0)); err != nil {
		t.Fatal(err)
	}
	// Drop a single byte: every event is at least three bytes, so the
	// final event is guaranteed to be cut mid-record (dropping more
	// could remove a whole event and look like a clean EOF).
	truncated := buf.Bytes()[:buf.Len()-1]
	_, err := RunReader(trace.NewReader(bytes.NewReader(truncated)), Config{Policy: core.Full{}})
	if err == nil {
		t.Fatal("truncated stream simulated without error")
	}
}

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
