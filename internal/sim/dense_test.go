package sim

import (
	"reflect"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// renameIDs returns the trace with every object ID (allocation, free,
// pointer-store source and target) mapped through f. f must be
// injective and keep trace.NilObject fixed.
func renameIDs(events []trace.Event, f func(trace.ObjectID) trace.ObjectID) []trace.Event {
	out := make([]trace.Event, len(events))
	for i, e := range events {
		switch e.Kind {
		case trace.KindAlloc, trace.KindFree:
			e.ID = f(e.ID)
		case trace.KindPtrWrite:
			e.ID = f(e.ID)
			if e.Target != trace.NilObject {
				e.Target = f(e.Target)
			}
		}
		out[i] = e
	}
	return out
}

// TestSparseIndexMatchesDense renames a trace's IDs into a
// non-monotone order, which drives the tape off its dense index onto
// the map: every result must stay bit-identical to the monotone
// trace's, with compaction at default thresholds, with it off, and
// with it forced to retire on every cadence check. "tail" renames
// only the IDs allocated after the trace's midpoint, so the tape
// switches to the map after it has already retired a dense prefix.
func TestSparseIndexMatchesDense(t *testing.T) {
	events := compactingChurnTrace(12000)
	maxID := trace.ObjectID(countAllocs(events))
	renames := []struct {
		name string
		f    func(trace.ObjectID) trace.ObjectID
	}{
		{"scrambled", func(id trace.ObjectID) trace.ObjectID { return id * 0x9E3779B97F4A7C15 }},
		{"tail", func(id trace.ObjectID) trace.ObjectID {
			if id <= maxID/2 {
				return id
			}
			return 3*maxID - id
		}},
	}
	tapes := []struct {
		name       string
		uncompact  bool
		aggressive bool
	}{
		{"compacting", false, false},
		{"uncompacted", true, false},
		{"early-retire", false, true},
	}
	run := func(t *testing.T, events []trace.Event, uncompact, early bool) ([]*Result, *tape) {
		t.Helper()
		cfgs := reclaimingMatrix()
		cfgs[0].UncompactedTape = uncompact
		f, err := NewFleet(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if early {
			aggressive(f.tape)
		}
		if err := f.FeedBatch(events); err != nil {
			t.Fatal(err)
		}
		return f.Finish(), f.tape
	}
	for _, tc := range tapes {
		want, dense := run(t, events, tc.uncompact, tc.aggressive)
		if dense.index != nil {
			t.Fatalf("%s: monotone trace left the dense index", tc.name)
		}
		if st := dense.stats(); tc.uncompact != (st.RetiredObjects == 0) {
			t.Fatalf("%s: retired %d objects", tc.name, st.RetiredObjects)
		}
		for _, rn := range renames {
			got, sparse := run(t, renameIDs(events, rn.f), tc.uncompact, tc.aggressive)
			if sparse.index == nil {
				t.Fatalf("%s/%s: renamed trace stayed on the dense index", tc.name, rn.name)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/%s: %s result differs between the dense and sparse index", tc.name, rn.name, want[i].Collector)
				}
			}
		}
	}
}

// TestDenseSparseErrors feeds the same malformed traces to a tape on
// the dense index and to one forced onto the map from the start: the
// error — text, event index and all — must be the same. The
// "after retire" cases leave the dense index only once a prefix has
// retired, so the map is filled from a rebased ids slice.
func TestDenseSparseErrors(t *testing.T) {
	// Objects 1..8 of 20 KB, each freed two allocations later: with
	// floor thresholds, a NoGC tape retires the dead prefix as it goes.
	var prefix []trace.Event
	var instr uint64
	for id := trace.ObjectID(1); id <= 8; id++ {
		instr += 10
		prefix = append(prefix, trace.Alloc(id, 20*kb, instr))
		if id > 2 {
			prefix = append(prefix, trace.Free(id-2, instr))
		}
	}
	at := func(es ...trace.Event) []trace.Event {
		out := append([]trace.Event{}, prefix...)
		for _, e := range es {
			e.Instr = instr + 1
			out = append(out, e)
		}
		return out
	}
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"duplicate alloc", at(trace.Alloc(8, 16, 0)), "duplicate allocation of object 8"},
		{"reuse of retired id", at(trace.Alloc(1, 16, 0)), "duplicate allocation of object 1"},
		{"double free", at(trace.Free(8, 0), trace.Free(8, 0)), "double free of object 8"},
		{"free of retired id", at(trace.Free(2, 0)), "double free of object 2"},
		{"free of unknown id", at(trace.Free(99, 0)), "free of unknown object 99"},
		{"after retire: reuse of retired id", at(trace.Alloc(50, 16, 0), trace.Alloc(1, 16, 0)), "duplicate allocation of object 1"},
		{"after retire: duplicate alloc", at(trace.Alloc(50, 16, 0), trace.Alloc(7, 16, 0)), "duplicate allocation of object 7"},
		{"after retire: double free", at(trace.Alloc(50, 16, 0), trace.Free(50, 0), trace.Free(50, 0)), "double free of object 50"},
		{"after retire: free of unknown id", at(trace.Alloc(50, 16, 0), trace.Free(9, 0)), "free of unknown object 9"},
	}
	feed := func(t *testing.T, events []trace.Event, sparse bool) (*tape, error) {
		t.Helper()
		f := newSolo(t, Config{Mode: ModeNoGC})
		aggressive(f.tape)
		if sparse {
			f.tape.sparsify()
		}
		for _, e := range events {
			if err := feedOne(f, e); err != nil {
				return f.tape, err
			}
		}
		return f.tape, nil
	}
	for _, tc := range cases {
		dtp, dense := feed(t, tc.events, false)
		stp, sparse := feed(t, tc.events, true)
		if dense == nil || sparse == nil {
			t.Fatalf("%s: dense error %v, sparse error %v: want both to fail", tc.name, dense, sparse)
		}
		if dense.Error() != sparse.Error() {
			t.Errorf("%s: dense index says %q, map says %q", tc.name, dense, sparse)
		}
		if !strings.Contains(dense.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, dense, tc.want)
		}
		if dtp.stats().RetiredObjects == 0 {
			t.Errorf("%s: the prefix retired nothing, so retired IDs went unexercised", tc.name)
		}
		if dtp.stats() != stp.stats() {
			t.Errorf("%s: tapes diverged: dense %+v, sparse %+v", tc.name, dtp.stats(), stp.stats())
		}
		if after := strings.HasPrefix(tc.name, "after retire"); (dtp.index == nil) == after {
			t.Errorf("%s: dense index in use = %v at the error", tc.name, dtp.index == nil)
		}
	}
}
