package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
)

// adaptiveMatrix is the adaptive-policy config set used by the fleet
// equivalence tests: both bandit selectors and the gradient policy,
// with an explicit PolicySeed so every path derives identical
// instance seeds.
func adaptiveMatrix() []Config {
	return []Config{
		{Policy: core.Bandit{Eps: 0.1}, TriggerBytes: 10 * kb, Label: "eps", PolicySeed: 7},
		{Policy: core.Bandit{UCB: 1.5, Arms: 4}, TriggerBytes: 10 * kb, Label: "ucb", PolicySeed: 7},
		{Policy: core.Gradient{}, TriggerBytes: 10 * kb, Label: "grad", PolicySeed: 7},
		{Policy: core.Full{}, TriggerBytes: 10 * kb, Label: "full", PolicySeed: 7},
	}
}

// TestAdaptiveFleetMatchesSoloRuns extends the fleet/solo equivalence
// pin to state-carrying policies: the learned state must evolve
// identically whether the runner lives in a fleet or runs alone,
// because both derive the same instance seed from (PolicySeed, Label,
// collector) and see the same event sequence.
func TestAdaptiveFleetMatchesSoloRuns(t *testing.T) {
	events := markedChurnTrace(3000)
	cfgs := adaptiveMatrix()

	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustRun(t, events, cfg)
	}
	for _, batch := range []int{1, 777, len(events) + 1} {
		fleet, err := NewFleet(cfgs)
		if err != nil {
			t.Fatalf("batch %d: NewFleet: %v", batch, err)
		}
		for lo := 0; lo < len(events); lo += batch {
			if err := fleet.FeedBatch(events[lo:min(lo+batch, len(events))]); err != nil {
				t.Fatalf("batch %d: FeedBatch: %v", batch, err)
			}
		}
		got := fleet.Finish()
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("batch %d, %s: fleet result differs from solo run", batch, want[i].Collector)
			}
		}
	}
}

// TestAdaptiveFleetInstancesAreIsolated is the shared-state hazard
// regression test: two runners built from the SAME adaptive policy
// value must get their own instances, and each must behave exactly as
// it would alone. A shared instance would interleave both runners'
// Boundary/Observe streams and diverge from the solo runs.
func TestAdaptiveFleetInstancesAreIsolated(t *testing.T) {
	events := markedChurnTrace(2500)
	pol := core.Bandit{Eps: 0.2}
	cfgs := []Config{
		{Policy: pol, TriggerBytes: 10 * kb, Label: "a", PolicySeed: 3},
		{Policy: pol, TriggerBytes: 10 * kb, Label: "b", PolicySeed: 3},
	}
	fleet, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := fleet.Runners()[0], fleet.Runners()[1]
	if ra.PolicyInstance() == nil || rb.PolicyInstance() == nil {
		t.Fatal("adaptive runners did not get policy instances")
	}
	if ra.PolicyInstance() == rb.PolicyInstance() {
		t.Fatal("two runners share one adaptive policy instance")
	}
	if err := fleet.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	got := fleet.Finish()
	for i, cfg := range cfgs {
		want := mustRun(t, events, cfg)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("runner %d (%s): fleet result differs from solo run — instance state leaked", i, cfg.Label)
		}
	}
}

// sharedInstancePolicy deliberately violates the AdaptivePolicy
// contract: NewRun hands every caller the same instance. It exists to
// prove the fleet's shared-instance detector actually fires (the
// mutation self-test for the isolation regression test above).
type sharedInstancePolicy struct{ inst core.PolicyInstance }

func (p sharedInstancePolicy) Name() string { return "EvilShared" }
func (p sharedInstancePolicy) Boundary(now core.Time, hist *core.History, heap core.Heap) core.Time {
	return 0
}
func (p sharedInstancePolicy) NewRun(seed uint64) core.PolicyInstance { return p.inst }

func TestFleetRejectsSharedInstance(t *testing.T) {
	evil := sharedInstancePolicy{inst: core.Bandit{Eps: 0.1}.NewRun(1)}
	_, err := NewFleet([]Config{
		{Policy: evil, TriggerBytes: 10 * kb, Label: "x"},
		{Policy: evil, TriggerBytes: 10 * kb, Label: "y"},
	})
	if err == nil {
		t.Fatal("NewFleet accepted two runners sharing one adaptive policy instance")
	}
	if !strings.Contains(err.Error(), "share one adaptive policy instance") {
		t.Fatalf("error %q does not name the shared-instance hazard", err)
	}
}

// TestAdaptiveTelemetryDeterministicAndAnnotated pins two properties
// of adaptive telemetry: the stream is byte-for-byte reproducible for
// the same config and seed, and decision lines carry the adaptive
// annotations (arm for the bandit, features_digest for both) while
// pure-policy streams stay free of them.
func TestAdaptiveTelemetryDeterministicAndAnnotated(t *testing.T) {
	events := markedChurnTrace(2000)
	run := func(p core.Policy, label string) string {
		var buf bytes.Buffer
		cfg := Config{Policy: p, TriggerBytes: 10 * kb, Label: label,
			PolicySeed: 5, Probe: NewTelemetryWriter(&buf)}
		mustRun(t, events, cfg)
		return buf.String()
	}

	a := run(core.Bandit{Eps: 0.1}, "bandit")
	b := run(core.Bandit{Eps: 0.1}, "bandit")
	if a != b {
		t.Error("bandit telemetry is not reproducible for the same seed")
	}
	if !strings.Contains(a, `"arm":`) || !strings.Contains(a, `"features_digest":"`) {
		t.Error("bandit decision lines lack the adaptive annotations")
	}

	g := run(core.Gradient{}, "grad")
	if strings.Contains(g, `"arm":`) {
		t.Error("gradient decisions should not report an arm")
	}
	if !strings.Contains(g, `"features_digest":"`) {
		t.Error("gradient decision lines lack the feature digest")
	}

	pure := run(core.DtbFM{TraceMax: 5 * kb}, "dtbfm")
	if strings.Contains(pure, "arm") || strings.Contains(pure, "features_digest") {
		t.Error("pure-policy telemetry gained adaptive fields — old streams must stay byte-identical")
	}
}

// TestPolicySeedChangesRuns: the seed must reach the instance — an
// exploring bandit run under a different PolicySeed should make at
// least one different decision over a long trace.
func TestPolicySeedChangesRuns(t *testing.T) {
	events := markedChurnTrace(4000)
	base := Config{Policy: core.Bandit{Eps: 0.5}, TriggerBytes: 10 * kb, Label: "s"}
	c1, c2 := base, base
	c1.PolicySeed, c2.PolicySeed = 1, 2
	r1, r2 := mustRun(t, events, c1), mustRun(t, events, c2)
	if reflect.DeepEqual(r1.History, r2.History) {
		t.Error("different PolicySeed produced identical decision histories: seed is ignored")
	}
	// And the same seed reproduces bit-identically.
	r3 := mustRun(t, events, c1)
	if !reflect.DeepEqual(r1, r3) {
		t.Error("same PolicySeed did not reproduce the run")
	}
}

// TestDerivePolicySeed pins the seed-derivation contract: stable for
// equal inputs, sensitive to each component, and immune to the
// label/collector concatenation ambiguity.
func TestDerivePolicySeed(t *testing.T) {
	base := derivePolicySeed(1, "lab", "col")
	if derivePolicySeed(1, "lab", "col") != base {
		t.Error("derivePolicySeed is not deterministic")
	}
	for name, other := range map[string]uint64{
		"user seed": derivePolicySeed(2, "lab", "col"),
		"label":     derivePolicySeed(1, "lab2", "col"),
		"collector": derivePolicySeed(1, "lab", "col2"),
		"boundary":  derivePolicySeed(1, "labc", "ol"),
	} {
		if other == base {
			t.Errorf("derivePolicySeed ignores the %s", name)
		}
	}
}

// TestPureRunnersHaveNoInstance: a stock policy must not pay for (or
// observe) any adaptive machinery.
func TestPureRunnersHaveNoInstance(t *testing.T) {
	if newSolo(t, tinyConfig(core.Full{})).Runners()[0].PolicyInstance() != nil {
		t.Error("pure policy runner carries an adaptive instance")
	}
}

// TestFleetPolicyStateSnapshotRestore drives a fleet halfway, snapshots
// the adaptive state, keeps going, then proves a second fleet restored
// from the snapshot finishes bit-identically on the same tail.
func TestFleetPolicyStateSnapshotRestore(t *testing.T) {
	events := markedChurnTrace(3000)
	half := len(events) / 2
	cfgs := adaptiveMatrix()

	a, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FeedBatch(events[:half]); err != nil {
		t.Fatal(err)
	}
	snaps := a.SnapshotPolicyState()
	if len(snaps) != len(cfgs) {
		t.Fatalf("%d snapshots for %d runners", len(snaps), len(cfgs))
	}
	for i, cfg := range cfgs {
		_, adaptive := cfg.Policy.(core.AdaptivePolicy)
		if adaptive != (snaps[i] != nil) {
			t.Fatalf("runner %d: adaptive=%v but snapshot presence=%v", i, adaptive, snaps[i] != nil)
		}
	}

	// The reference: keep feeding fleet a to the end.
	if err := a.FeedBatch(events[half:]); err != nil {
		t.Fatal(err)
	}
	want := a.Finish()

	// The restored twin: replay the prefix (recreating histories and
	// heap state), then overwrite the policy state with the snapshot.
	b, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FeedBatch(events[:half]); err != nil {
		t.Fatal(err)
	}
	if err := b.RestorePolicyState(snaps); err != nil {
		t.Fatal(err)
	}
	if err := b.FeedBatch(events[half:]); err != nil {
		t.Fatal(err)
	}
	got := b.Finish()
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: restored fleet diverged from the uninterrupted one", want[i].Collector)
		}
	}
}

// TestFleetRestorePolicyStateRejectsMismatch covers the shape checks.
func TestFleetRestorePolicyStateRejectsMismatch(t *testing.T) {
	cfgs := adaptiveMatrix()
	f, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RestorePolicyState(make([][]byte, 1)); err == nil {
		t.Error("wrong-length snapshot slice accepted")
	}
	snaps := f.SnapshotPolicyState()
	snaps[0] = nil // adaptive runner, missing state
	if err := f.RestorePolicyState(snaps); err == nil {
		t.Error("missing adaptive state accepted")
	}
	snaps = f.SnapshotPolicyState()
	last := len(snaps) - 1 // the Full runner is pure
	snaps[last] = []byte("{}")
	if err := f.RestorePolicyState(snaps); err == nil {
		t.Error("adaptive state for a pure runner accepted")
	}
}
