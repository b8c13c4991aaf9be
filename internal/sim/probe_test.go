package sim

import (
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// recordingProbe retains every event in emission order.
type recordingProbe struct {
	events []any
}

func (p *recordingProbe) RunStart(e RunStart)      { p.events = append(p.events, e) }
func (p *recordingProbe) Decision(e Decision)      { p.events = append(p.events, e) }
func (p *recordingProbe) Scavenge(e ScavengeEvent) { p.events = append(p.events, e) }
func (p *recordingProbe) Progress(e Progress)      { p.events = append(p.events, e) }
func (p *recordingProbe) RunFinish(e RunFinish)    { p.events = append(p.events, e) }

// probeTrace is a small steady-state workload: enough allocation to
// force several scavenges, with marks sprinkled in for the
// opportunistic tests.
func probeTrace() []trace.Event {
	b := trace.NewBuilder()
	var ids []trace.ObjectID
	for i := 0; i < 400; i++ {
		b.Advance(100)
		ids = append(ids, b.Alloc(512))
		if len(ids) > 8 {
			b.Free(ids[0])
			ids = ids[1:]
		}
		if i%50 == 49 {
			b.Mark("phase")
		}
	}
	return b.Events()
}

func TestProbeEventSequence(t *testing.T) {
	var p recordingProbe
	res, err := Run(probeTrace(), Config{
		Policy:        core.DtbFM{TraceMax: 4 * 1024},
		TriggerBytes:  16 * 1024,
		Probe:         &p,
		Label:         "seq",
		ProgressBytes: 32 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collections < 3 {
		t.Fatalf("workload too small: only %d collections", res.Collections)
	}
	if len(p.events) == 0 {
		t.Fatal("no events emitted")
	}

	start, ok := p.events[0].(RunStart)
	if !ok {
		t.Fatalf("first event is %T, want RunStart", p.events[0])
	}
	if start.Label != "seq" || start.Collector != res.Collector || start.TriggerBytes != 16*1024 {
		t.Errorf("RunStart = %+v", start)
	}
	finish, ok := p.events[len(p.events)-1].(RunFinish)
	if !ok {
		t.Fatalf("last event is %T, want RunFinish", p.events[len(p.events)-1])
	}
	if finish.Result != res {
		t.Error("RunFinish.Result is not the run's Result")
	}

	// Decision/scavenge alternation with matching, gapless indices, and
	// scavenge fields agreeing with the retained history and pauses.
	var pending *Decision
	nScav := 0
	var progressEvents, progressClock uint64
	for i, ev := range p.events[1 : len(p.events)-1] {
		switch e := ev.(type) {
		case Decision:
			if pending != nil {
				t.Fatalf("event %d: decision %d while decision %d unmatched", i, e.N, pending.N)
			}
			if e.N != nScav+1 {
				t.Errorf("decision N = %d, want %d", e.N, nScav+1)
			}
			if len(e.Candidates) == 0 || e.Candidates[0] != 0 {
				t.Errorf("decision %d candidates %v do not start with 0", e.N, e.Candidates)
			}
			if nScav > 0 {
				prev := res.History.Scavenges[nScav-1].T
				if e.Candidates[len(e.Candidates)-1] != prev {
					t.Errorf("decision %d candidates %v missing previous scavenge time %d", e.N, e.Candidates, prev)
				}
			}
			cp := e
			pending = &cp
		case ScavengeEvent:
			if pending == nil || pending.N != e.N {
				t.Fatalf("event %d: scavenge %d without matching decision", i, e.N)
			}
			if e.Trigger != pending.Trigger || e.T != pending.Now || e.TB != pending.TB || e.MemBefore != pending.MemBefore {
				t.Errorf("scavenge %d disagrees with its decision: %+v vs %+v", e.N, e, *pending)
			}
			pending = nil
			nScav++
			h := res.History.Scavenges[e.N-1]
			if e.T != h.T || e.TB != h.TB || e.MemBefore != h.MemBefore ||
				e.Traced != h.Traced || e.Reclaimed != h.Reclaimed || e.Surviving != h.Surviving {
				t.Errorf("scavenge %d event %+v disagrees with history %+v", e.N, e, h)
			}
			if e.PauseSeconds != res.Pauses[e.N-1] {
				t.Errorf("scavenge %d pause %v, want %v", e.N, e.PauseSeconds, res.Pauses[e.N-1])
			}
			if e.TB > e.T {
				t.Errorf("scavenge %d boundary %d is in the future of %d", e.N, e.TB, e.T)
			}
			if e.TenuredGarbage != e.Surviving-e.Live {
				t.Errorf("scavenge %d tenured garbage %d != surviving %d - live %d", e.N, e.TenuredGarbage, e.Surviving, e.Live)
			}
		case Progress:
			if uint64(e.Events) < progressEvents || e.Clock.Bytes() < progressClock {
				t.Errorf("progress went backwards: %+v", e)
			}
			progressEvents, progressClock = uint64(e.Events), e.Clock.Bytes()
			if e.Collections > nScav {
				t.Errorf("progress reports %d collections, only %d seen", e.Collections, nScav)
			}
		default:
			t.Fatalf("event %d: unexpected interior event %T", i, ev)
		}
	}
	if pending != nil {
		t.Errorf("decision %d never got its scavenge", pending.N)
	}
	if nScav != res.Collections {
		t.Errorf("saw %d scavenge events, result has %d collections", nScav, res.Collections)
	}
	if progressEvents == 0 {
		t.Error("no Progress events despite small ProgressBytes")
	}
}

func TestProbeMarkTrigger(t *testing.T) {
	var p recordingProbe
	_, err := Run(probeTrace(), Config{
		Policy:        core.Full{},
		TriggerBytes:  16 * 1024,
		Opportunistic: true,
		Probe:         &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	var byBytes, byMark int
	for _, ev := range p.events {
		if e, ok := ev.(ScavengeEvent); ok {
			switch e.Trigger {
			case TriggerByteBudget:
				byBytes++
			case TriggerMark:
				byMark++
			}
		}
	}
	if byMark == 0 {
		t.Error("opportunistic run emitted no mark-triggered scavenges")
	}
	if byBytes+byMark == 0 {
		t.Error("no scavenges at all")
	}
}

// TestProbeDoesNotInfluence checks the observe-never-influence
// contract: attaching a probe must leave the result bit-identical.
func TestProbeDoesNotInfluence(t *testing.T) {
	events := probeTrace()
	cfg := Config{Policy: core.FeedMed{TraceMax: 4 * 1024}, TriggerBytes: 16 * 1024}
	bare, err := Run(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = &recordingProbe{}
	cfg.ProgressBytes = 8 * 1024
	probed, err := Run(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, probed) {
		t.Errorf("probe changed the result:\nbare:   %+v\nprobed: %+v", bare, probed)
	}
}

// TestNoProbeFeedAllocs is the allocation guard for the nil-probe fast
// path: feeding events that do not grow the heap (pointer writes,
// marks below the opportunistic threshold) must not allocate at all —
// in particular the telemetry hooks must not build candidate lists or
// event structs that escape.
func TestNoProbeFeedAllocs(t *testing.T) {
	r := newSolo(t, Config{Policy: core.Full{}, Opportunistic: true})
	b := trace.NewBuilder()
	id := b.Alloc(64)
	b.PtrWrite(id, 0, id)
	b.Mark("m")
	events := b.Events()
	if err := feedOne(r, events[0]); err != nil {
		t.Fatal(err)
	}
	ptr, mark := events[1], events[2]
	allocs := testing.AllocsPerRun(100, func() {
		if err := feedOne(r, ptr); err != nil {
			t.Fatal(err)
		}
		if err := feedOne(r, mark); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("nil-probe one-event FeedBatch allocated %v times per ptr-write/mark pair, want 0", allocs)
	}
}

// BenchmarkFeedNoProbe measures the hot allocation path with no probe
// attached; run with -benchmem to see the per-event allocation cost
// the telemetry hooks must not add to.
func BenchmarkFeedNoProbe(b *testing.B) {
	benchmarkFeed(b, nil)
}

// BenchmarkFeedRecordingProbe is the comparison point with a probe.
func BenchmarkFeedRecordingProbe(b *testing.B) {
	benchmarkFeed(b, &recordingProbe{})
}

func benchmarkFeed(b *testing.B, p Probe) {
	events := probeTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newSolo(b, Config{Policy: core.Full{}, TriggerBytes: 16 * 1024, Probe: p})
		for _, e := range events {
			if err := feedOne(r, e); err != nil {
				b.Fatal(err)
			}
		}
		r.Finish()
	}
}
