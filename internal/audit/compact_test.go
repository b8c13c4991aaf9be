package audit

import (
	"fmt"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// TestCompactedReplayMatchesUncompactedOracle is the fleet-level
// differential oracle for epoch compaction: every paper workload
// (across two generator seeds) plus a pure-churn trace that provokes
// heavy retirement runs the full collector matrix through the fan-out
// engine twice — once with the shared tape compacting at its default
// cadence, once with Config.UncompactedTape pinning every ordinal for
// the whole replay — and the two passes must agree bit for bit:
// DiffResults on every Result, DiffTelemetry line for line, and a
// clean auditor on both paths. AuditWorkload already diffs the
// compacted fast path against solo uncompacted reference runs; this
// test closes the remaining gap by diffing fleet against fleet, where
// compaction decisions are shared across all runners at once.
func TestCompactedReplayMatchesUncompactedOracle(t *testing.T) {
	opts := Options{TriggerBytes: 10 * kb, MemMaxBytes: 40 * kb, TraceMaxBytes: 5 * kb}

	type traceCase struct {
		name   string
		events []trace.Event
	}
	var cases []traceCase
	for _, base := range workload.PaperProfiles() {
		for ds := uint64(0); ds < 2; ds++ {
			p := base.Scale(0.002)
			p.Seed = base.Seed + ds
			events, err := p.Generate()
			if err != nil {
				t.Fatalf("%s: generate: %v", p.Name, err)
			}
			cases = append(cases, traceCase{fmt.Sprintf("%s/seed+%d", p.Name, ds), events})
		}
	}
	// Pure churn: no object survives, so the dead tape prefix grows
	// without bound and default-threshold compaction fires repeatedly
	// (bucket trimming for the whole matrix; ordinal retirement
	// whenever the runner floors allow it).
	cases = append(cases, traceCase{"churn", churnTrace(30000, 256, 12, 0)})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compacted := runPath(t, tc.name, opts, replayPath(engine.SliceSource(tc.events)))
			uncompacted := runPath(t, tc.name, opts, func(cfgs []sim.Config) ([]*sim.Result, error) {
				// One uncompacted config disables compaction for the
				// whole shared tape.
				for i := range cfgs {
					cfgs[i].UncompactedTape = true
				}
				return replayPath(engine.SliceSource(tc.events))(cfgs)
			})

			for i := range uncompacted.res {
				label := uncompacted.res[i].Collector
				for _, d := range DiffResults(compacted.res[i], uncompacted.res[i]) {
					t.Errorf("%s: compacted vs uncompacted: %s", label, d)
				}
				for _, d := range DiffTelemetry(compacted.tel[i], uncompacted.tel[i]) {
					t.Errorf("%s telemetry: compacted vs uncompacted: %s", label, d)
				}
			}
			for _, path := range []struct {
				name string
				aud  *Auditor
			}{{"compacted", compacted.aud}, {"uncompacted", uncompacted.aud}} {
				if err := path.aud.Err(); err != nil {
					t.Errorf("%s auditor: %v", path.name, err)
				}
			}
		})
	}
}

// TestAuditChurnTraceActuallyCompacts pins the premise of the churn
// case above: on that trace, a fleet of draining collectors retires
// ordinal prefixes and trims birth buckets at the default thresholds.
// Without this the differential would pass vacuously if compaction
// never engaged. The full audit matrix holds tenuring collectors
// (FIXED, tight-budget DTBFM) whose floors pin retirement, so the
// assertion uses reclaiming collectors; bucket trimming needs no
// drained floors and is asserted for the full matrix too.
func TestAuditChurnTraceActuallyCompacts(t *testing.T) {
	events := churnTrace(30000, 256, 12, 0)

	reclaiming := []sim.Config{
		{Mode: sim.ModePolicy, Policy: core.Full{}, TriggerBytes: 10 * kb, Label: "churn/full"},
		{Mode: sim.ModePolicy, Policy: core.FeedMed{TraceMax: 1 << 20}, TriggerBytes: 10 * kb, Label: "churn/feedmed"},
		{Mode: sim.ModeNoGC, Label: "churn/nogc"},
		{Mode: sim.ModeLive, Label: "churn/live"},
	}
	fleet, err := sim.NewFleet(reclaiming)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	fleet.Finish()
	stats := fleet.TapeStats()
	if stats.RetiredObjects == 0 {
		t.Errorf("reclaiming fleet retired nothing over %d events: %+v", stats.Events, stats)
	}
	if stats.TrimmedBuckets == 0 {
		t.Errorf("reclaiming fleet trimmed no birth buckets: %+v", stats)
	}

	full, err := sim.NewFleet(collectorConfigs("churn", Options{
		TriggerBytes: 10 * kb, MemMaxBytes: 40 * kb, TraceMaxBytes: 5 * kb,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	full.Finish()
	if s := full.TapeStats(); s.TrimmedBuckets == 0 {
		t.Errorf("full audit matrix trimmed no birth buckets: %+v", s)
	}
}
