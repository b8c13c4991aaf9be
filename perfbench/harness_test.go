package main

import (
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
)

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	// Interpolation would invent 50.5; nearest rank reports a sample.
	if got := percentile([]float64{1, 100}, 50); got != 1 {
		t.Errorf("median of {1, 100} = %g, want 1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got > 0 && c.n-nearestRank(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves %d samples beyond it", c.n, got, c.n-nearestRank(c.n, got))
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const hold = 30 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	ts := openLoop(due, 1, func(int) func() {
		time.Sleep(hold)
		return nil
	})
	// With one connection, the second request comes due while the
	// first holds it: it must be sent late, and its latency must count
	// the wait from its due time, not just its own service.
	second := ts[1]
	if second.due != due[1] {
		t.Fatalf("due = %v, want %v", second.due, due[1])
	}
	if late := second.sent - second.due; late < hold-5*time.Millisecond {
		t.Errorf("second request sent %v late, want about %v", late, hold)
	}
	if service := float64(second.done-second.sent) / float64(time.Millisecond); second.latencyMs() < service+20 {
		t.Errorf("latency %.1f ms does not include the %.1f ms wait before sending (service %.1f ms)", second.latencyMs(), second.lateMs(), service)
	}
	if ts[2].lateMs() < ts[1].lateMs() {
		t.Errorf("third request %.1f ms late, second %.1f ms: a backlog must accumulate", ts[2].lateMs(), ts[1].lateMs())
	}
	if first := ts[0]; first.lateMs() > 20 {
		t.Errorf("first request sent %.1f ms late with an idle connection", first.lateMs())
	}
}

func TestOpenLoopBoundsInFlight(t *testing.T) {
	var inFlight, peak atomic.Int64
	due := make([]time.Duration, 40)
	openLoop(due, 2, func(int) func() {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if got := peak.Load(); got != 2 {
		t.Errorf("peak in flight = %d, want 2", got)
	}
}

func TestSloFracCountsFailuresAsMisses(t *testing.T) {
	samples := []sample{
		{ms: 5, ok: true},
		{ms: 5, ok: false}, // fast but failed: a miss
		{ms: 50, ok: true},
		{ms: 500, ok: true}, // answered too late: a miss
	}
	if got := sloFrac(samples, 100); got != 0.5 {
		t.Errorf("sloFrac = %g, want 0.5", got)
	}
	if got := sloFrac(nil, 100); got != 0 {
		t.Errorf("sloFrac of no samples = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsOnlyCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},  // overlaps a: [20,30] counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only [90,100] lies inside the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 50, End: 60, Parent: -1}, // not a child: not subtracted
	}
	self := selfTimes(spans)
	want := []time.Duration{60, 14, 20, 30, 6, 10}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
	lt := sumLayers(spans)
	if lt.self["parent"] != 60 || lt.total["c"] != 30 || lt.self["a"] != 14 {
		t.Errorf("layer sums wrong: %+v", lt)
	}
}

func TestDiffResultsComparesFloatBits(t *testing.T) {
	events, err := dtbgc.WorkloadByName("CFRAC").Scale(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	run := func() *dtbgc.Result {
		res, err := dtbgc.Simulate(events, dtbgc.SimOptions{Policy: dtbgc.FullPolicy(), TriggerBytes: 16 << 10, RecordCurve: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if d := diffResults(a, b); d != "" {
		t.Fatalf("identical runs differ: %s", d)
	}
	if len(b.Pauses) == 0 || b.Curve == nil || len(b.Curve.Points) == 0 {
		t.Fatal("fixture has no pauses or curve to perturb")
	}
	b.Curve.Points[len(b.Curve.Points)-1].V = math.Nextafter(b.Curve.Points[len(b.Curve.Points)-1].V, math.Inf(1))
	if d := diffResults(a, b); d == "" {
		t.Error("a one-ulp change in the curve went unnoticed")
	}
	b = run()
	b.Pauses[0] = math.Nextafter(b.Pauses[0], math.Inf(1))
	if d := diffResults(a, b); d == "" {
		t.Error("a one-ulp change in a pause went unnoticed")
	}
	b = run()
	b.History.Scavenges = b.History.Scavenges[:len(b.History.Scavenges)-1]
	if d := diffResults(a, b); d == "" {
		t.Error("a dropped history entry went unnoticed")
	}
}

func TestSlowdownIsMeanChunkOverNominal(t *testing.T) {
	// The mean, not the median: one preempted chunk in three weighs in.
	cal := []calSample{
		{wall: calNominal, cpu: 2 * calNominal},
		{wall: calNominal, cpu: 2 * calNominal},
		{wall: 4 * calNominal, cpu: 2 * calNominal},
	}
	got := slowdownOf(cal, 2)
	if got.wall != 2 || got.cpu != 1 {
		t.Errorf("slowdown = %+v, want wall 2 and cpu 1 (two goroutines)", got)
	}
	if got := slowdownOf(nil, 1); got.wall != 1 || got.cpu != 1 {
		t.Errorf("slowdown of no chunks = %+v, want 1", got)
	}
}

func TestWindowedScalesEachWindowByItsOwnChunks(t *testing.T) {
	n := 2*calWindow + calWindow/2 - 1 // a short last window joins the second
	values := make([]float64, n)
	cal := make([]calSample, n)
	for i := range values {
		values[i] = 30
		cal[i] = calSample{wall: calNominal}
		if i < calWindow {
			cal[i].wall = 3 * calNominal // the first window ran three times slower
		}
	}
	got := windowed(values, cal, 1, wallOf)
	for i, v := range got {
		want := 30.0
		if i < calWindow {
			want = 10
		}
		if v != want {
			t.Errorf("value %d scaled to %g, want %g", i, v, want)
		}
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-matrix", "--trace", "2"},
		{"--workload", "paper-matrix", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
