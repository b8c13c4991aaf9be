package fault

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/trace"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"read-err@4096",
		"trunc@8192,close-err",
		"write-err@1048576,short-write@512",
		"source-err@100,cancel@7",
	} {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("ParseSpec(%q).String() = %q", spec, got)
		}
	}
}

func TestParseSpecSuffixes(t *testing.T) {
	p, err := ParseSpec(" trunc@4k , read-err@2M ")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "trunc@4096,read-err@2097152" {
		t.Errorf("suffix expansion: %q", got)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"",              // empty spec
		",,",            // only separators
		"bogus@1",       // unknown kind
		"read-err",      // missing required offset
		"trunc@",        // empty offset
		"trunc@-1",      // negative
		"trunc@4q",      // bad suffix
		"short-write@0", // zero cap
	} {
		if p, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %v", bad, p)
		}
	}
}

func TestReaderInjectsAtExactOffset(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 1000)
	plan := NewPlan(Fault{Kind: ReadErr, Offset: 300})
	got, err := io.ReadAll(plan.Reader(bytes.NewReader(data)))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if len(got) != 300 {
		t.Fatalf("delivered %d bytes before the fault, want 300", len(got))
	}
	if !strings.Contains(err.Error(), "read-err@300") {
		t.Errorf("error %q does not name the fault", err)
	}
}

func TestReaderTruncatesAsCleanEOF(t *testing.T) {
	data := bytes.Repeat([]byte{0xCD}, 1000)
	plan := NewPlan(Fault{Kind: Truncate, Offset: 515})
	got, err := io.ReadAll(plan.Reader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("truncation must look like clean EOF, got %v", err)
	}
	if len(got) != 515 {
		t.Fatalf("delivered %d bytes, want 515", len(got))
	}
}

func TestOneShotFaultsAllowCleanSecondPass(t *testing.T) {
	data := bytes.Repeat([]byte{1}, 100)
	plan := NewPlan(Fault{Kind: ReadErr, Offset: 10})
	if _, err := io.ReadAll(plan.Reader(bytes.NewReader(data))); !errors.Is(err, ErrInjected) {
		t.Fatalf("first pass: %v", err)
	}
	// Re-wrapping models reopening after a transient failure: the fault
	// is spent, so the retry reads everything.
	got, err := io.ReadAll(plan.Reader(bytes.NewReader(data)))
	if err != nil || len(got) != len(data) {
		t.Fatalf("second pass: %d bytes, %v", len(got), err)
	}
	if unfired := plan.Unfired(); len(unfired) != 0 {
		t.Fatalf("Unfired() = %v after the fault fired", unfired)
	}
}

func TestWriterInjectsAcrossOffset(t *testing.T) {
	plan := NewPlan(Fault{Kind: WriteErr, Offset: 50})
	var sink bytes.Buffer
	w := plan.Writer(&sink)
	if n, err := w.Write(make([]byte, 40)); n != 40 || err != nil {
		t.Fatalf("write below the offset: %d, %v", n, err)
	}
	n, err := w.Write(make([]byte, 40))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write: %v, want ErrInjected", err)
	}
	if n != 10 || sink.Len() != 50 {
		t.Fatalf("short write landed %d bytes (sink %d), want exactly up to offset 50", n, sink.Len())
	}
}

func TestShortWritePersists(t *testing.T) {
	plan := NewPlan(Fault{Kind: ShortWrite, Offset: 8})
	var sink bytes.Buffer
	w := plan.Writer(&sink)
	for i := 0; i < 3; i++ {
		n, err := w.Write(make([]byte, 32))
		if n != 8 || err != nil {
			t.Fatalf("call %d: n=%d err=%v, want the persistent 8-byte cap with no error", i, n, err)
		}
	}
	if unfired := plan.Unfired(); len(unfired) != 1 {
		t.Fatalf("short-write must stay scheduled (a persistent misbehavior), Unfired() = %v", unfired)
	}
}

func TestCloseErrFiresOnlyAtClose(t *testing.T) {
	plan := NewPlan(Fault{Kind: CloseErr})
	var sink bytes.Buffer
	w := plan.Writer(&sink)
	if _, err := w.Write([]byte("all writes succeed")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close: %v, want ErrInjected", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close after the fault fired: %v", err)
	}
}

func TestNilPlanPassesThrough(t *testing.T) {
	var p *Plan
	data := []byte("payload")
	if r := p.Reader(bytes.NewReader(data)); r == nil {
		t.Fatal("nil plan Reader")
	} else if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("nil-plan read: %q, %v", got, err)
	}
	var sink bytes.Buffer
	w := p.Writer(&sink)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("nil-plan write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("nil-plan close: %v", err)
	}
	if p.String() != "" || p.Unfired() != nil {
		t.Fatal("nil plan must render empty and report nothing unfired")
	}
	src := p.Source(func(emit func([]trace.Event) error) error {
		return emit([]trace.Event{trace.Alloc(1, 8, 1)})
	}, nil)
	count := 0
	if err := src(func(b []trace.Event) error { count += len(b); return nil }); err != nil || count != 1 {
		t.Fatalf("nil-plan source: %d events, %v", count, err)
	}
}

// batchedSource emits ten events in batches of size: the fault
// offsets must land on exact events whatever the batch boundaries.
func batchedSource(size int) engine.Source {
	events := make([]trace.Event, 10)
	for i := range events {
		events[i] = trace.Alloc(trace.ObjectID(i+1), 8, uint64(i+1))
	}
	return func(emit func([]trace.Event) error) error {
		for lo := 0; lo < len(events); lo += size {
			if err := emit(events[lo:min(lo+size, len(events))]); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestSourceErrAtExactEvent(t *testing.T) {
	for _, size := range []int{1, 3, 4, 10} {
		plan := NewPlan(Fault{Kind: SourceErr, Offset: 4})
		seen := 0
		err := plan.Source(batchedSource(size), nil)(func(b []trace.Event) error { seen += len(b); return nil })
		if !errors.Is(err, ErrInjected) || seen != 4 {
			t.Fatalf("batch size %d: saw %d events, err %v; want 4 events then the injected error", size, seen, err)
		}
	}
}

func TestCancelInvokesCancelAndContinues(t *testing.T) {
	for _, size := range []int{1, 3, 10} {
		plan := NewPlan(Fault{Kind: Cancel, Offset: 6})
		cancelled := false
		seen := 0
		err := plan.Source(batchedSource(size), func() { cancelled = true })(func(b []trace.Event) error { seen += len(b); return nil })
		if err != nil {
			t.Fatalf("batch size %d: a cancel storm is not a stream error: %v", size, err)
		}
		if !cancelled || seen != 10 {
			t.Fatalf("batch size %d: cancelled=%v seen=%d; cancel must fire at event 6 and the stream must keep flowing", size, cancelled, seen)
		}
	}
}

// TestSharedOffsetFiresAtConsecutiveEvents: each event position
// consumes at most one fault, so a cancel and a source error both
// scheduled at event 4 fire at events 4 and 5, in schedule order,
// however the stream is batched.
func TestSharedOffsetFiresAtConsecutiveEvents(t *testing.T) {
	for _, size := range []int{1, 3, 10} {
		plan := NewPlan(Fault{Kind: Cancel, Offset: 4}, Fault{Kind: SourceErr, Offset: 4})
		cancelled := false
		seen := 0
		err := plan.Source(batchedSource(size), func() { cancelled = true })(func(b []trace.Event) error { seen += len(b); return nil })
		if !errors.Is(err, ErrInjected) || !cancelled || seen != 5 {
			t.Fatalf("batch size %d: cancelled=%v seen=%d err=%v; want the cancel at 4, then 5 events and the injected error", size, cancelled, seen, err)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := RandomPlan(seed, Truncate, 10000)
		b := RandomPlan(seed, Truncate, 10000)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %q vs %q", seed, a, b)
		}
		f := a.Unfired()[0]
		if f.Offset < 1 || f.Offset >= 10000 {
			t.Fatalf("seed %d: offset %d outside [1, 10000)", seed, f.Offset)
		}
	}
	if a, b := RandomPlan(1, ReadErr, 10000), RandomPlan(2, ReadErr, 10000); a.String() == b.String() {
		t.Fatal("adjacent seeds produced the same schedule")
	}
}

func TestSelfTest(t *testing.T) {
	if err := SelfTest(t.Logf); err != nil {
		t.Fatal(err)
	}
}
