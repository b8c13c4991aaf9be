package sim

import (
	"fmt"

	"github.com/dtbgc/dtbgc/internal/core"
)

// Probe observes a simulation run as it happens: the paper's whole
// contribution is a collector that *reacts to measurements*, and a
// Probe is the window onto those measurements — the policy decision
// before each scavenge, the scavenge outcome, periodic allocation
// progress, and run start/finish.
//
// Telemetry observes, never influences: the runner passes probes
// copies of its state, calls them at well-defined points, and reads
// nothing back. A Probe must not mutate anything it is handed (the
// RunFinish result is shared with the caller of Run) and must not
// block; slow sinks slow the simulation but cannot change its result.
// Every run emits exactly the same event sequence for the same trace
// and configuration, so telemetry is as replayable as the simulation
// itself.
//
// The zero Probe (nil Config.Probe) is free: the hooks reduce to a
// nil check and the hot path allocates nothing on its behalf (see the
// no-probe allocation guard in the tests).
type Probe interface {
	// RunStart is emitted once, before any event is fed.
	RunStart(RunStart)
	// Decision is emitted after the policy chose the threatening
	// boundary for scavenge N, before any storage is traced.
	Decision(Decision)
	// Scavenge is emitted after scavenge N completed.
	Scavenge(ScavengeEvent)
	// Progress is emitted roughly every Config.ProgressBytes of
	// allocation.
	Progress(Progress)
	// RunFinish is emitted once, from Finish, with the final result.
	RunFinish(RunFinish)
}

// TriggerReason says why a scavenge ran.
type TriggerReason uint8

const (
	// TriggerByteBudget: the allocation interval (Config.TriggerBytes)
	// elapsed — the paper's fixed scavenge trigger.
	TriggerByteBudget TriggerReason = iota
	// TriggerMark: an opportunistic scavenge at a trace Mark event (a
	// program quiescent point, Wilson & Moher scheduling).
	TriggerMark
)

// String returns the wire name used in JSON telemetry.
func (t TriggerReason) String() string {
	switch t {
	case TriggerByteBudget:
		return "bytes"
	case TriggerMark:
		return "mark"
	}
	return "unknown"
}

// MarshalJSON encodes the reason as its wire name.
func (t TriggerReason) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalText parses a wire name written by MarshalJSON.
func (t *TriggerReason) UnmarshalText(b []byte) error {
	for _, r := range []TriggerReason{TriggerByteBudget, TriggerMark} {
		if string(b) == r.String() {
			*t = r
			return nil
		}
	}
	return fmt.Errorf("unknown trigger %q", b)
}

// RunStart announces a run and its fixed configuration.
type RunStart struct {
	Label     string // Config.Label, "" when unset
	Collector string // policy name, "NoGC" or "Live"
	// Machine is the post-default machine model (MIPS, trace rate):
	// the constants every pause and overhead figure in the run's
	// events is derived from, so a sink — or an auditor — can verify
	// the arithmetic instead of assuming the paper's machine.
	Machine       Machine
	TriggerBytes  uint64
	ProgressBytes uint64
	Opportunistic bool
}

// Decision records one boundary-policy decision: the inputs the policy
// saw and the boundary it chose, emitted before the scavenge runs.
type Decision struct {
	Label   string
	N       int           // 1-based index of the scavenge about to run
	Trigger TriggerReason // why the scavenge was scheduled
	Now     core.Time     // t_n, the allocation clock at the decision
	TB      core.Time     // TB_n, the chosen boundary (post-clamp)
	// Candidates are the boundary ages available to the Table-1
	// policies at this decision: program start (a full collection)
	// plus the most recent prior scavenge times, oldest first, capped
	// at a fixed count. The chosen TB need not be a member — the
	// dynamic policies interpolate between candidates.
	Candidates []core.Time
	MemBefore  uint64 // Mem_n: bytes in use at the decision
	LiveBefore uint64 // oracle live bytes at the decision
	// Adaptive carries the learned-policy explanation for this decision
	// when the run's policy is a core.AdaptivePolicy whose instance
	// implements core.DecisionExplainer; nil for the stock (pure)
	// policies, so existing telemetry streams are unchanged.
	Adaptive *AdaptiveDecision
}

// AdaptiveDecision explains one adaptive-policy decision: which
// discrete arm was played (or -1 when the policy has no arm notion)
// and an FNV-1a digest of the feature vector / internal state the
// decision was computed from. The digest lets replay checks assert two
// engine paths computed the decision from bit-identical state without
// shipping the whole state per decision.
type AdaptiveDecision struct {
	Arm           int
	FeatureDigest uint64
}

// ScavengeEvent records one completed scavenge. Its fields match the
// core.Scavenge the run's History retains, plus the oracle-derived
// measures only the simulator knows.
type ScavengeEvent struct {
	Label     string
	N         int // 1-based scavenge index, matching History.Scavenges[N-1].N
	Trigger   TriggerReason
	T         core.Time // t_n
	TB        core.Time // TB_n
	MemBefore uint64
	Traced    uint64
	Reclaimed uint64
	Surviving uint64
	// Live is the oracle live-byte count just after the scavenge;
	// Surviving - Live is the garbage the boundary tenured.
	Live           uint64
	TenuredGarbage uint64
	PauseSeconds   float64 // Traced at the machine's trace rate
}

// Entry returns the History entry the event reports.
func (e ScavengeEvent) Entry() core.Scavenge {
	return core.Scavenge{
		N: e.N, T: e.T, TB: e.TB, MemBefore: e.MemBefore,
		Traced: e.Traced, Reclaimed: e.Reclaimed, Surviving: e.Surviving,
	}
}

// Progress is the periodic allocation heartbeat for watching long
// runs: cadence is controlled by Config.ProgressBytes.
type Progress struct {
	Label       string
	Events      int       // trace events fed so far
	Instr       uint64    // instruction clock of the latest event
	Clock       core.Time // allocation clock
	InUse       uint64    // bytes in use under the run's mode
	Live        uint64    // oracle live bytes
	Collections int       // scavenges completed so far
}

// RunFinish closes a run's event stream with its final result. The
// Result is the same object Run returns — read-only for probes.
type RunFinish struct {
	Label  string
	Result *Result
}

// Probes combines several probes into one: every event is delivered
// to each non-nil probe in argument order. Nil entries are skipped,
// so callers can pass optional sinks unconditionally; with zero
// non-nil probes the result is nil (the free no-probe path), and a
// single non-nil probe is returned unwrapped.
func Probes(ps ...Probe) Probe {
	live := make([]Probe, 0, len(ps))
	for _, p := range ps {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiProbe(live)
}

// multiProbe fans every event out to each member in order.
type multiProbe []Probe

// RunStart implements Probe.
func (m multiProbe) RunStart(e RunStart) {
	for _, p := range m {
		p.RunStart(e)
	}
}

// Decision implements Probe.
func (m multiProbe) Decision(e Decision) {
	for _, p := range m {
		p.Decision(e)
	}
}

// Scavenge implements Probe.
func (m multiProbe) Scavenge(e ScavengeEvent) {
	for _, p := range m {
		p.Scavenge(e)
	}
}

// Progress implements Probe.
func (m multiProbe) Progress(e Progress) {
	for _, p := range m {
		p.Progress(e)
	}
}

// RunFinish implements Probe.
func (m multiProbe) RunFinish(e RunFinish) {
	for _, p := range m {
		p.RunFinish(e)
	}
}

var _ Probe = multiProbe(nil)

// maxCandidates caps the Decision candidate list so long runs emit
// bounded events.
const maxCandidates = 16

// boundaryCandidates lists the boundary ages a Table-1 policy can
// choose among at the next decision: 0 (program start, FULL's choice)
// and the most recent prior scavenge times (FIXED-k's t_{n-k}, the
// FEEDMED/DTBFM advance candidates). The history is read, never
// retained.
func boundaryCandidates(hist *core.History) []core.Time {
	n := len(hist.Scavenges)
	first := 0
	if n > maxCandidates-1 {
		first = n - (maxCandidates - 1)
	}
	out := make([]core.Time, 0, n-first+1)
	out = append(out, 0)
	for _, s := range hist.Scavenges[first:] {
		out = append(out, s.T)
	}
	return out
}
