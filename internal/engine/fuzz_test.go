package engine_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// shapeMatrix is the paper's 8-collector matrix — the six boundary
// policies plus the NoGC and Live baselines — writing one telemetry
// stream per collector into tel, which it resets.
func shapeMatrix(tel *[8]bytes.Buffer) []sim.Config {
	const kb = 1024
	policies := []core.Policy{
		core.Full{}, core.Fixed{K: 1}, core.Fixed{K: 4},
		core.DtbMem{MemMax: 40 * kb},
		core.FeedMed{TraceMax: 5 * kb},
		core.DtbFM{TraceMax: 5 * kb},
	}
	cfgs := make([]sim.Config, 0, len(policies)+2)
	for _, p := range policies {
		cfgs = append(cfgs, sim.Config{Policy: p, TriggerBytes: 10 * kb, Label: "shape/" + p.Name()})
	}
	cfgs = append(cfgs,
		sim.Config{Mode: sim.ModeNoGC, Label: "shape/NoGC"},
		sim.Config{Mode: sim.ModeLive, Label: "shape/Live"})
	for i := range cfgs {
		tel[i].Reset()
		cfgs[i].Probe = sim.NewTelemetryWriter(&tel[i])
	}
	return cfgs
}

func lines(b *bytes.Buffer) []string {
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
}

var errCut = errors.New("source cut")

// cutSource emits events in batches whose sizes cycle through cuts
// (one byte per batch, small and large sizes both reachable). With
// failAt >= 0 it fails after exactly failAt events, emitting the part
// of the batch before that point first, as every Source must.
func cutSource(events []trace.Event, cuts []byte, failAt int) engine.Source {
	return func(emit func([]trace.Event) error) error {
		for lo, i := 0, 0; lo < len(events) || lo == failAt; i++ {
			size := len(events)
			if len(cuts) > 0 {
				b := int(cuts[i%len(cuts)])
				size = 1 + b*b/8
			}
			hi := min(lo+size, len(events))
			if failAt >= lo && failAt <= hi {
				hi = failAt
			}
			if hi > lo {
				if err := emit(events[lo:hi]); err != nil {
					return err
				}
			}
			if hi == failAt {
				return errCut
			}
			lo = hi
		}
		return nil
	}
}

// FuzzReplayShape drives the one replay path with fuzz-chosen batch
// shapes: the first two bytes pick a checkpoint offset, the rest split
// into the batch cuts of an interrupted pass and of the reopened
// source its Resume reads. An uninterrupted Replay and the
// interrupted-then-resumed one must both equal sim.Run, collector by
// collector, under audit.DiffResults, with each collector's telemetry
// equal line for line.
func FuzzReplayShape(f *testing.F) {
	events, err := workload.PaperProfiles()[1].Scale(0.005).Generate()
	if err != nil {
		f.Fatal(err)
	}
	var wantTel [8]bytes.Buffer
	want := make([]*sim.Result, len(wantTel))
	for i, cfg := range shapeMatrix(&wantTel) {
		if want[i], err = sim.Run(events, cfg); err != nil {
			f.Fatal(err)
		}
	}

	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 7, 200, 1, 90})
	f.Add([]byte{0x00, 0x01, 0, 255})
	f.Add([]byte{0xff, 0xff, 181, 3, 3, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		if len(data) >= 2 {
			off = (int(data[0])<<8 | int(data[1])) % (len(events) + 1)
			data = data[2:]
		}
		cutsA, cutsB := data[:len(data)/2], data[len(data)/2:]
		var tel [8]bytes.Buffer
		check := func(path string, got []*sim.Result) {
			t.Helper()
			for i := range want {
				for _, d := range audit.DiffResults(got[i], want[i]) {
					t.Errorf("%s: %s: %s", path, want[i].Collector, d)
				}
				for _, d := range audit.DiffTelemetry(lines(&tel[i]), lines(&wantTel[i])) {
					t.Errorf("%s: %s telemetry: %s", path, want[i].Collector, d)
				}
			}
		}

		got, _, err := engine.Replay(context.Background(), cutSource(events, cutsA, -1), shapeMatrix(&tel))
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		check("Replay", got)

		_, cp, err := engine.Replay(context.Background(), cutSource(events, cutsA, off), shapeMatrix(&tel))
		if !errors.Is(err, errCut) || cp == nil || cp.Events() != off {
			t.Fatalf("interrupted at %d: err %v, checkpoint %v", off, err, cp)
		}
		got, cp, err = cp.Resume(context.Background(), cutSource(events, cutsB, -1))
		if err != nil || cp != nil {
			t.Fatalf("Resume from %d: %v (checkpoint %v)", off, err, cp)
		}
		check("Resume", got)
	})
}
