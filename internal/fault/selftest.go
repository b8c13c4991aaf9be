package fault

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// SelfTest is the harness's mutation-style proof of coverage: for every
// fault class it runs the production path that class threatens and
// asserts the outcome is either a recovery with exact, accounted drops
// or a loud error — never a silent success. It returns the first
// violated expectation (with every scheduled fault double-checked as
// fired), so a nil return means every fault class demonstrably bites.
//
// logf, if non-nil, receives one progress line per class (pass
// testing.T.Logf from tests, or a no-op from CLIs).
func SelfTest(logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	events := selfTestEvents()
	data, offs, err := encodeWithOffsets(events)
	if err != nil {
		return fmt.Errorf("selftest: encoding fixture: %v", err)
	}

	for _, step := range []struct {
		name string
		run  func() (*Plan, error)
	}{
		{"spec grammar round-trip", checkSpecRoundTrip},
		{"read-err fails the strict reader loudly", func() (*Plan, error) { return checkReadErr(data) }},
		{"trunc mid-record fails the strict reader loudly", func() (*Plan, error) { return checkTruncStrict(data, offs) }},
		{"trunc mid-record recovers with an exact accounted drop", func() (*Plan, error) { return checkTruncRecovered(events, data, offs) }},
		{"write-err fails the writer loudly", func() (*Plan, error) { return checkWriteErr(data) }},
		{"close-err fails only at Close", func() (*Plan, error) { return checkCloseErr(data) }},
		{"short-write surfaces io.ErrShortWrite through bufio", func() (*Plan, error) { return checkShortWrite(data) }},
		{"source-err checkpoints and resumes bit-identically", func() (*Plan, error) { return checkSourceErr(events) }},
		{"cancel aborts with the context error and resumes", func() (*Plan, error) { return checkCancel(events) }},
	} {
		plan, err := step.run()
		if err != nil {
			return fmt.Errorf("selftest: %s: %w", step.name, err)
		}
		// ShortWrite is exempt from the fired check: it persists by
		// design (never spent), and its step already proved it bit by
		// asserting io.ErrShortWrite surfaced.
		var unfired []Fault
		for _, f := range plan.Unfired() {
			if f.Kind != ShortWrite {
				unfired = append(unfired, f)
			}
		}
		if len(unfired) > 0 {
			return fmt.Errorf("selftest: %s: scheduled fault(s) never fired: %v", step.name, unfired)
		}
		logf("fault selftest: %s", step.name)
	}
	return nil
}

// selfTestEvents builds the fixture trace: enough events that the
// engine's periodic context check (every few thousand events) lands
// between a Cancel fault and the end of the stream, with every event
// kind represented and a valid alloc/free discipline throughout.
func selfTestEvents() []trace.Event {
	var events []trace.Event
	var live []trace.ObjectID
	instr := uint64(1)
	id := trace.ObjectID(1)
	for len(events) < 12000 {
		instr += 7 + uint64(len(events)%13)
		switch {
		case len(events)%997 == 500:
			events = append(events, trace.Mark(fmt.Sprintf("phase-%d", len(events)/997), instr))
		case len(live) >= 64:
			events = append(events, trace.Free(live[0], instr))
			live = live[1:]
		case len(live) >= 2 && len(events)%5 == 3:
			events = append(events, trace.PtrWrite(live[len(live)-1], uint32(len(events)%8), live[0], instr))
		default:
			size := uint64(16 + (len(events)%64)*24)
			events = append(events, trace.Alloc(id, size, instr))
			live = append(live, id)
			id++
		}
	}
	return events
}

// encodeWithOffsets encodes events and returns the stream plus the
// byte offsets where the two records around the middle start, derived
// by encoding prefixes — with the delta clock, a record's length
// depends only on its prefix.
func encodeWithOffsets(events []trace.Event) ([]byte, []int, error) {
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, events); err != nil {
		return nil, nil, err
	}
	mid := len(events) / 2
	offs := make([]int, 0, 2)
	for i := mid; i <= mid+1; i++ {
		var b bytes.Buffer
		if err := trace.WriteAll(&b, events[:i]); err != nil {
			return nil, nil, err
		}
		offs = append(offs, b.Len())
	}
	return buf.Bytes(), offs, nil
}

func checkSpecRoundTrip() (*Plan, error) {
	const spec = "read-err@4096,trunc@8k,write-err@1m,close-err,short-write@512,source-err@100,cancel@7"
	p, err := ParseSpec(spec)
	if err != nil {
		return NewPlan(), err
	}
	if got := p.String(); got != "read-err@4096,trunc@8192,write-err@1048576,close-err,short-write@512,source-err@100,cancel@7" {
		return NewPlan(), fmt.Errorf("round-trip gave %q", got)
	}
	for _, bad := range []string{"", "bogus@1", "read-err", "short-write@0", "trunc@x"} {
		if _, err := ParseSpec(bad); err == nil {
			return NewPlan(), fmt.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	return NewPlan(), nil // nothing to fire in a grammar check
}

func checkReadErr(data []byte) (*Plan, error) {
	plan := NewPlan(Fault{Kind: ReadErr, Offset: uint64(len(data) / 2)})
	_, err := trace.NewReader(plan.Reader(bytes.NewReader(data))).ReadAll()
	if !errors.Is(err, ErrInjected) {
		return plan, fmt.Errorf("strict decode returned %v, want the injected read error", err)
	}
	return plan, nil
}

func checkTruncStrict(data []byte, offs []int) (*Plan, error) {
	cut := offs[0] + 1 // one byte into a mid-stream record: a torn tail
	plan := NewPlan(Fault{Kind: Truncate, Offset: uint64(cut)})
	_, err := trace.NewReader(plan.Reader(bytes.NewReader(data))).ReadAll()
	if err == nil || errors.Is(err, io.EOF) {
		return plan, fmt.Errorf("strict decode of a torn stream returned %v, want a decode error", err)
	}
	return plan, nil
}

func checkTruncRecovered(events []trace.Event, data []byte, offs []int) (*Plan, error) {
	cut := offs[0] + 1
	plan := NewPlan(Fault{Kind: Truncate, Offset: uint64(cut)})
	rr := trace.NewRecoveringReader(plan.Reader(bytes.NewReader(data)))
	got, err := rr.ReadAll()
	if err != nil {
		return plan, fmt.Errorf("recovery failed: %v", err)
	}
	want := len(events) / 2 // the record the cut lands in, and after, are gone
	if len(got) != want {
		return plan, fmt.Errorf("recovered %d events, want the %d before the tear", len(got), want)
	}
	drops := rr.Drops()
	if exact := (trace.DropStats{TornTail: 1, BytesDropped: 1}); drops != exact {
		return plan, fmt.Errorf("drops = %+v, want exactly %+v", drops, exact)
	}
	for i := range got {
		if got[i] != events[i] {
			return plan, fmt.Errorf("recovered event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	return plan, nil
}

func checkWriteErr(data []byte) (*Plan, error) {
	plan := NewPlan(Fault{Kind: WriteErr, Offset: uint64(len(data) / 3)})
	var sink bytes.Buffer
	_, err := plan.Writer(&sink).Write(data)
	if !errors.Is(err, ErrInjected) {
		return plan, fmt.Errorf("write returned %v, want the injected write error", err)
	}
	if sink.Len() != len(data)/3 {
		return plan, fmt.Errorf("%d bytes landed before the fault, want %d", sink.Len(), len(data)/3)
	}
	return plan, nil
}

func checkCloseErr(data []byte) (*Plan, error) {
	plan := NewPlan(Fault{Kind: CloseErr})
	var sink bytes.Buffer
	w := plan.Writer(&sink)
	if _, err := w.Write(data); err != nil {
		return plan, fmt.Errorf("write before close failed: %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		return plan, fmt.Errorf("Close returned %v, want the injected close error", err)
	}
	return plan, nil
}

func checkShortWrite(data []byte) (*Plan, error) {
	plan := NewPlan(Fault{Kind: ShortWrite, Offset: 100})
	var sink bytes.Buffer
	bw := bufio.NewWriterSize(plan.Writer(&sink), 4096)
	_, werr := bw.Write(data)
	ferr := bw.Flush()
	if !errors.Is(werr, io.ErrShortWrite) && !errors.Is(ferr, io.ErrShortWrite) {
		return plan, fmt.Errorf("bufio over a short writer gave write=%v flush=%v, want io.ErrShortWrite", werr, ferr)
	}
	return plan, nil
}

// replayConfigs is the matrix SelfTest replays under: the paper's DTB
// collector plus a baseline, so resume consistency is checked on both
// stateful-policy and policy-free paths.
func replayConfigs(probe sim.Probe) []sim.Config {
	return []sim.Config{
		{Policy: core.DtbFM{TraceMax: 8 * 1024}, TriggerBytes: 32 * 1024, Probe: probe, Label: "selftest-dtbfm"},
		{Policy: core.Full{}, TriggerBytes: 32 * 1024, Probe: probe, Label: "selftest-full"},
	}
}

// baselineReplay runs the uninterrupted replay and returns its results
// and telemetry stream for comparison.
func baselineReplay(events []trace.Event) ([]*sim.Result, []byte, error) {
	var tel bytes.Buffer
	res, _, err := engine.Replay(context.Background(), engine.SliceSource(events), replayConfigs(sim.NewTelemetryWriter(&tel)))
	return res, tel.Bytes(), err
}

func checkSourceErr(events []trace.Event) (*Plan, error) {
	want, wantTel, err := baselineReplay(events)
	if err != nil {
		return NewPlan(), fmt.Errorf("baseline replay: %v", err)
	}
	plan := NewPlan(Fault{Kind: SourceErr, Offset: uint64(len(events) / 2)})
	var tel bytes.Buffer
	cfgs := replayConfigs(sim.NewTelemetryWriter(&tel))
	src := plan.Source(engine.SliceSource(events), nil)
	_, cp, err := engine.Replay(context.Background(), src, cfgs)
	if !errors.Is(err, ErrInjected) {
		return plan, fmt.Errorf("interrupted replay returned %v, want the injected source error", err)
	}
	if cp == nil || cp.Events() != len(events)/2 {
		return plan, fmt.Errorf("checkpoint %v, want one at event %d", cp, len(events)/2)
	}
	// The fault is spent, so re-wrapping models reopening the source
	// after a transient failure: the second pass is clean.
	got, cp, err := cp.Resume(context.Background(), plan.Source(engine.SliceSource(events), nil))
	if err != nil || cp != nil {
		return plan, fmt.Errorf("resume: %v (checkpoint %v)", err, cp)
	}
	if !reflect.DeepEqual(got, want) {
		return plan, fmt.Errorf("resumed results differ from the uninterrupted run's")
	}
	if !bytes.Equal(tel.Bytes(), wantTel) {
		return plan, fmt.Errorf("resumed telemetry stream differs from the uninterrupted run's")
	}
	return plan, nil
}

func checkCancel(events []trace.Event) (*Plan, error) {
	want, _, err := baselineReplay(events)
	if err != nil {
		return NewPlan(), fmt.Errorf("baseline replay: %v", err)
	}
	plan := NewPlan(Fault{Kind: Cancel, Offset: 100})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := plan.Source(engine.SliceSource(events), cancel)
	_, cp, err := engine.Replay(ctx, src, replayConfigs(nil))
	if !errors.Is(err, context.Canceled) {
		return plan, fmt.Errorf("cancelled replay returned %v, want context.Canceled", err)
	}
	if cp == nil {
		return plan, errors.New("cancellation between events offered no checkpoint")
	}
	got, cp, err := cp.Resume(context.Background(), plan.Source(engine.SliceSource(events), func() {}))
	if err != nil || cp != nil {
		return plan, fmt.Errorf("resume under a fresh context: %v (checkpoint %v)", err, cp)
	}
	if !reflect.DeepEqual(got, want) {
		return plan, fmt.Errorf("resumed-after-cancel results differ from the uninterrupted run's")
	}
	return plan, nil
}
