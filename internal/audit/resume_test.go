package audit

import (
	"bytes"
	"context"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/fault"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// resumeMatrix is the replay matrix the resume oracle runs: the DTB
// collector in both constraint modes plus the full-collection baseline.
func resumeMatrix(probe sim.Probe) []sim.Config {
	mk := func(p core.Policy) sim.Config {
		return sim.Config{
			Policy: p, TriggerBytes: 10 * kb,
			Label: "resume/" + p.Name(), Probe: probe,
		}
	}
	return []sim.Config{
		mk(core.Full{}),
		mk(core.DtbFM{TraceMax: 5 * kb}),
		mk(core.DtbMem{MemMax: 40 * kb}),
	}
}

// TestResumeBitIdenticalUnderOracle is the acceptance check for
// checkpoint/resume: a replay interrupted by an injected source fault
// and resumed must reproduce the uninterrupted run bit for bit — every
// Result field under DiffResults' Float64bits comparison, and the
// telemetry stream byte for byte — with the auditor's invariants clean
// throughout. Interrupt offsets come from seeded fault schedules, so
// the sweep is deterministic but not hand-picked.
func TestResumeBitIdenticalUnderOracle(t *testing.T) {
	events := churnTrace(3000, 256, 12, 40)

	var wantTel bytes.Buffer
	want, _, err := engine.Replay(context.Background(), engine.SliceSource(events),
		resumeMatrix(sim.Probes(NewAuditor(), sim.NewTelemetryWriter(&wantTel))))
	if err != nil {
		t.Fatalf("uninterrupted replay: %v", err)
	}

	for seed := uint64(1); seed <= 5; seed++ {
		plan := fault.RandomPlan(seed, fault.SourceErr, uint64(len(events)))
		aud := NewAuditor()
		var tel bytes.Buffer
		cfgs := resumeMatrix(sim.Probes(aud, sim.NewTelemetryWriter(&tel)))

		_, cp, rerr := engine.Replay(context.Background(),
			plan.Source(engine.SliceSource(events), nil), cfgs)
		if rerr == nil || cp == nil {
			t.Fatalf("seed %d: interrupted replay gave err=%v cp=%v", seed, rerr, cp)
		}
		got, cp, rerr := cp.Resume(context.Background(),
			plan.Source(engine.SliceSource(events), nil))
		if rerr != nil || cp != nil {
			t.Fatalf("seed %d: resume: %v (checkpoint %v)", seed, rerr, cp)
		}

		for i := range want {
			for _, d := range DiffResults(got[i], want[i]) {
				t.Errorf("seed %d, %s: %s", seed, want[i].Collector, d)
			}
		}
		for _, d := range DiffTelemetry(telemetryLines(&tel), telemetryLines(&wantTel)) {
			t.Errorf("seed %d: %s", seed, d)
		}
		if vs := aud.Violations(); len(vs) > 0 {
			t.Errorf("seed %d: resumed run violated %d invariant(s): %v", seed, len(vs), vs[0])
		}
	}
}

// TestResumeAfterCancellationUnderOracle covers the other resumable
// interrupt: an injected cancellation storm. The replay aborts with the
// context error at its next check, and resuming under a fresh context
// still reproduces the uninterrupted run exactly.
func TestResumeAfterCancellationUnderOracle(t *testing.T) {
	events := churnTrace(3000, 256, 12, 40)
	want, _, err := engine.Replay(context.Background(), engine.SliceSource(events), resumeMatrix(nil))
	if err != nil {
		t.Fatalf("uninterrupted replay: %v", err)
	}
	plan := fault.NewPlan(fault.Fault{Kind: fault.Cancel, Offset: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, cp, rerr := engine.Replay(ctx,
		plan.Source(engine.SliceSource(events), cancel), resumeMatrix(nil))
	if rerr == nil || cp == nil {
		t.Fatalf("cancelled replay gave err=%v cp=%v", rerr, cp)
	}
	got, cp, rerr := cp.Resume(context.Background(),
		plan.Source(engine.SliceSource(events), func() {}))
	if rerr != nil || cp != nil {
		t.Fatalf("resume: %v (checkpoint %v)", rerr, cp)
	}
	for i := range want {
		for _, d := range DiffResults(got[i], want[i]) {
			t.Errorf("%s: %s", want[i].Collector, d)
		}
	}
}

// TestNoteDrops: consistent drop accounting passes; each contract
// violation — negative counts, a doubly-torn tail, untyped or costless
// drops — is reported under the drop-accounting rule.
func TestNoteDrops(t *testing.T) {
	clean := []trace.DropStats{
		{},
		{CorruptRecords: 2, BytesDropped: 40},
		{TornTail: 1, BytesDropped: 3},
		{CorruptRecords: 1, TornTail: 1, BytesDropped: 9},
	}
	for _, d := range clean {
		aud := NewAuditor()
		aud.NoteDrops("t", d)
		if vs := aud.Violations(); len(vs) != 0 {
			t.Errorf("NoteDrops(%+v) flagged: %v", d, vs[0])
		}
	}
	dirty := []trace.DropStats{
		{CorruptRecords: -1, BytesDropped: 1},
		{TornTail: 2, BytesDropped: 5},
		{BytesDropped: 10},  // untyped drop
		{CorruptRecords: 1}, // typed drop that cost nothing
	}
	for _, d := range dirty {
		aud := NewAuditor()
		aud.NoteDrops("t", d)
		if !hasRule(aud.Violations(), "drop-accounting") {
			t.Errorf("NoteDrops(%+v) passed the audit", d)
		}
	}
}
