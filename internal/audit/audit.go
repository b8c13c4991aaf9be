// Package audit is the repository's correctness harness: an always-on
// invariant auditor and a differential oracle that continuously prove
// the optimized simulation paths agree with the paper's semantics.
//
// The paper's contribution is a set of per-scavenge identities — the
// threatening boundary lies in [0, t_n] and at or before t_{n-1} for
// every Table-1 policy, scavenge times are monotone, memory accounting
// balances (Mem_n = S_n + reclaimed bytes), pauses are traced bytes
// over the machine's trace rate — and the fast paths (birth-epoch
// bucket queries, single-pass fan-out replay, streamed decoding) are
// only trustworthy while those identities keep holding. The package
// provides three layers:
//
//   - Auditor, a sim.Probe that checks every telemetry event of a run
//     against the identities and reports structured Violations instead
//     of silently diverging;
//   - the differential oracle (Workload, diff.go), which replays a
//     workload through deliberately naive reference implementations —
//     O(n) tail-scan boundary queries, solo per-collector runs instead
//     of the fan-out, in-memory slices instead of streamed chunks —
//     and diffs Result, History and telemetry field by field;
//   - metamorphic and mutation self-tests (SelfTest): results must be
//     invariant under trace re-chunking and probe attachment, and a
//     deliberately seeded accounting skew must be caught — a checker
//     that cannot fail is not a checker.
//
// cmd/dtbaudit drives all three from the command line; dtbsim -audit
// attaches the Auditor to any single run.
package audit

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Violation is one observed breach of a paper identity.
type Violation struct {
	Label     string // run label, "" for unlabelled solo runs
	Collector string // policy name, "NoGC" or "Live"
	N         int    // 1-based scavenge index, 0 for run-level findings
	Rule      string // stable identifier of the invariant, e.g. "mem-accounting"
	Detail    string // human-readable specifics with the observed values
}

// String renders the violation for logs and error messages.
func (v Violation) String() string {
	run := v.Label
	if run == "" {
		run = v.Collector
	}
	if v.N > 0 {
		return fmt.Sprintf("%s: scavenge %d: %s: %s", run, v.N, v.Rule, v.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", run, v.Rule, v.Detail)
}

// Auditor is a sim.Probe that verifies the paper's per-scavenge
// identities on every run it observes. It never influences the run —
// it only reads the events — and it is safe for concurrent use, so a
// whole evaluation (EvalOptions.Probe) can run under one Auditor with
// runs demuxed by label.
//
// Checked identities, each with a stable Rule name:
//
//   - run-sequence: RunStart first, RunFinish last, no duplicates;
//   - decision-sequence: Decision n then Scavenge n, indices 1,2,3,...;
//   - boundary-future: TB_n <= t_n (the clamp contract);
//   - boundary-above-prev: TB_n <= t_{n-1} (t_0 = 0, so scavenge 1 is
//     full) for the stock Table-1 policies, whose derivations all
//     guarantee every object is traced at least once (unknown policy
//     names skip this check);
//   - time-monotone: t_n > t_{n-1};
//   - mem-monotone: memory in use never shrinks between scavenges
//     (only a scavenge reclaims), so Mem_n >= S_{n-1};
//   - live-exceeds-mem: oracle live bytes never exceed bytes in use;
//   - decision-scavenge-match: the scavenge outcome reports the same
//     t, TB and Mem its decision saw;
//   - mem-accounting: Mem_n = S_n + reclaimed_n exactly (the
//     untenured remainder stays inside S_n);
//   - trace-accounting: traced + reclaimed <= Mem_n;
//   - tenured-garbage: the event's TenuredGarbage = S_n - live;
//   - pause-rate: pause_n = traced_n / machine trace rate, bit-exact;
//   - finish-history: the final Result's History, Pauses, Collections
//     and TracedTotalBytes reproduce the observed event stream;
//   - finish-stats: mean <= max for memory and live statistics, the
//     live curve never exceeds the memory curve, and OverheadPct
//     matches total traced bytes at the machine's rates.
//
// The rules shared with CheckHistory live in history.go; the rest need
// what only the event stream carries (oracle live bytes, pauses, the
// final Result).
type Auditor struct {
	mu         sync.Mutex
	runs       map[string]*runAudit
	order      []string // first-seen run order, for deterministic reporting
	violations []Violation
}

// runAudit is the per-run state the checks thread through.
type runAudit struct {
	a         *Auditor // where violations go
	label     string
	collector string
	machine   sim.Machine
	started   bool
	finished  bool
	strict    bool // collector is a stock policy: TB_n <= t_{n-1} applies

	pending       *sim.Decision   // decision awaiting its scavenge
	hist          []core.Scavenge // the observed scavenges, as History entries
	pauses        []float64       // and their pauses
	lastClock     core.Time       // latest Progress allocation clock
	haveLastClock bool
}

// NewAuditor returns an empty Auditor ready to attach to runs.
func NewAuditor() *Auditor {
	return &Auditor{runs: make(map[string]*runAudit)}
}

// Violations returns every violation observed so far, sorted by run
// (first-seen order), scavenge index and rule, so output is
// deterministic even when concurrent runs interleave events.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	seen := make(map[string]int, len(a.order))
	for i, label := range a.order {
		seen[label] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		if oi, oj := seen[out[i].Label], seen[out[j].Label]; oi != oj {
			return oi < oj
		}
		if out[i].N != out[j].N {
			return out[i].N < out[j].N
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Err returns nil when every audited run was clean, or an error
// summarizing the violations (first few spelled out).
func (a *Auditor) Err() error {
	vs := a.Violations()
	if len(vs) == 0 {
		return nil
	}
	const show = 5
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s)", len(vs))
	for i, v := range vs {
		if i == show {
			fmt.Fprintf(&b, "; and %d more", len(vs)-show)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// report appends a violation of the run to its Auditor's list; it is a
// reportFunc, so the shared rules report through it. Callers hold
// r.a.mu.
func (r *runAudit) report(n int, rule, format string, args ...any) {
	r.a.violations = append(r.a.violations, Violation{
		Label:     r.label,
		Collector: r.collector,
		N:         n,
		Rule:      rule,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// stockBoundedPolicy reports whether the named collector is one of the
// Table-1 policies (or an ablation variant of one) whose derivation
// guarantees TB_n <= t_{n-1}. The NoGC/Live baselines never scavenge;
// unknown names are experimental policies the invariant may not bind.
func stockBoundedPolicy(name string) bool {
	switch {
	case name == "Full", name == "FeedMed":
		return true
	case strings.HasPrefix(name, "Fixed"):
		return true
	case strings.HasPrefix(name, "DtbFM"), strings.HasPrefix(name, "DtbMem"):
		return true // includes the DtbFM[...]/DtbMem[...] ablations
	}
	return false
}

// run returns (creating if needed) the state for a label; callers hold
// a.mu. An event arriving before RunStart still gets a state so its
// own checks can run; the sequencing check reports the missing start.
func (a *Auditor) run(label string) *runAudit {
	r := a.runs[label]
	if r == nil {
		r = &runAudit{a: a, label: label, machine: sim.PaperMachine()}
		a.runs[label] = r
		a.order = append(a.order, label)
	}
	return r
}

// RunStart implements sim.Probe.
func (a *Auditor) RunStart(e sim.RunStart) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.run(e.Label)
	if r.started {
		r.report(0, "run-sequence", "duplicate RunStart for collector %s", e.Collector)
		// Reset for the new run so its own checks stay meaningful.
		*r = runAudit{a: a, label: e.Label}
	}
	r.started = true
	r.collector = e.Collector
	r.strict = stockBoundedPolicy(e.Collector)
	r.machine = e.Machine
	if r.machine.Validate() != nil {
		r.report(0, "run-sequence", "RunStart carries unusable machine model %+v", e.Machine)
		r.machine = sim.PaperMachine()
	}
}

// Decision implements sim.Probe.
func (a *Auditor) Decision(e sim.Decision) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.run(e.Label)
	if !r.started {
		r.report(e.N, "run-sequence", "Decision before RunStart")
		r.started = true
	}
	if r.finished {
		r.report(e.N, "run-sequence", "Decision after RunFinish")
	}
	if r.pending != nil {
		r.report(e.N, "decision-sequence",
			"decision %d while decision %d still awaits its scavenge", e.N, r.pending.N)
	}
	if want := len(r.hist) + 1; e.N != want {
		r.report(e.N, "decision-sequence", "decision n=%d, want %d", e.N, want)
	}
	r.checkInputs(core.Scavenge{N: e.N, T: e.Now, TB: e.TB, MemBefore: e.MemBefore})
	if e.LiveBefore > e.MemBefore {
		r.report(e.N, "live-exceeds-mem",
			"oracle live bytes %d exceed bytes in use %d", e.LiveBefore, e.MemBefore)
	}
	d := e
	r.pending = &d
}

// Scavenge implements sim.Probe.
func (a *Auditor) Scavenge(e sim.ScavengeEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.run(e.Label)
	if !r.started {
		r.report(e.N, "run-sequence", "Scavenge before RunStart")
		r.started = true
	}
	if r.finished {
		r.report(e.N, "run-sequence", "Scavenge after RunFinish")
	}
	s := e.Entry()
	// The inputs were checked at the decision; a scavenge that arrives
	// without its decision, or disagrees with it, is checked on its own.
	switch d := r.pending; {
	case d == nil:
		r.report(e.N, "decision-sequence", "scavenge %d without a preceding decision", e.N)
		r.checkInputs(s)
	case d.N != e.N:
		r.report(e.N, "decision-sequence", "scavenge n=%d does not match decision n=%d", e.N, d.N)
		r.checkInputs(s)
	case e.T != d.Now || e.TB != d.TB || e.MemBefore != d.MemBefore:
		r.report(e.N, "decision-scavenge-match",
			"outcome (t=%v tb=%v mem=%d) differs from its decision (t=%v tb=%v mem=%d)",
			e.T, e.TB, e.MemBefore, d.Now, d.TB, d.MemBefore)
		r.checkInputs(s)
	}
	r.pending = nil
	checkOutcome(s, r.report)
	if e.Live > e.Surviving {
		r.report(e.N, "live-exceeds-mem",
			"oracle live bytes %d exceed the surviving bytes %d", e.Live, e.Surviving)
	} else if e.TenuredGarbage != e.Surviving-e.Live {
		r.report(e.N, "tenured-garbage",
			"TenuredGarbage=%d does not equal Surviving-Live=%d-%d=%d",
			e.TenuredGarbage, e.Surviving, e.Live, e.Surviving-e.Live)
	}
	// Bit identity, not ==: a NaN pause must compare equal to the
	// recomputed NaN (== would report a phantom divergence) and a -0/+0
	// split must be caught (== would bless it).
	if want := r.machine.PauseSeconds(e.Traced); math.Float64bits(e.PauseSeconds) != math.Float64bits(want) {
		r.report(e.N, "pause-rate",
			"pause %.9gs does not equal traced/rate = %d/%.6g = %.9gs",
			e.PauseSeconds, e.Traced, r.machine.TraceBytesPer, want)
	}
	r.hist = append(r.hist, s)
	r.pauses = append(r.pauses, e.PauseSeconds)
}

// checkInputs applies the decision-time rules to scavenge s against
// the run's previous scavenge; callers hold r.a.mu.
func (r *runAudit) checkInputs(s core.Scavenge) {
	var prev *core.Scavenge
	if n := len(r.hist); n > 0 {
		prev = &r.hist[n-1]
	}
	checkInputs(s, prev, r.report)
	if r.strict {
		checkAbovePrev(s, prev, r.report)
	}
}

// Progress implements sim.Probe.
func (a *Auditor) Progress(e sim.Progress) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.run(e.Label)
	if !r.started {
		r.report(0, "run-sequence", "Progress before RunStart")
		r.started = true
	}
	if e.Live > e.InUse && r.collector != "Live" {
		r.report(0, "live-exceeds-mem",
			"progress at clock %v: oracle live bytes %d exceed bytes in use %d", e.Clock, e.Live, e.InUse)
	}
	if r.haveLastClock && e.Clock < r.lastClock {
		r.report(0, "time-monotone",
			"progress clock regressed %v -> %v", r.lastClock, e.Clock)
	}
	r.lastClock, r.haveLastClock = e.Clock, true
	if got, want := e.Collections, len(r.hist); got != want {
		r.report(0, "decision-sequence",
			"progress reports %d collections but %d scavenge events were observed", got, want)
	}
}

// RunFinish implements sim.Probe.
func (a *Auditor) RunFinish(e sim.RunFinish) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.run(e.Label)
	res := e.Result
	if !r.started {
		r.report(0, "run-sequence", "RunFinish before RunStart")
		r.started = true
	}
	if r.finished {
		r.report(0, "run-sequence", "duplicate RunFinish")
	}
	r.finished = true
	if r.pending != nil {
		r.report(r.pending.N, "decision-sequence", "decision %d has no matching scavenge", r.pending.N)
	}
	a.checkFinishHistory(r, res)
	a.checkFinishStats(r, res)
}

// NoteDrops feeds the recovery decoder's drop accounting for a stream
// into the audit under the rule "drop-accounting". The accounting
// contract is what makes recovery trustworthy: typed counts and the
// byte total must agree (bytes were dropped exactly when a corrupt
// span or torn tail was recorded), and a single stream has at most one
// torn tail. The zero DropStats — a stream that decoded completely —
// is always clean.
//
// NoteDrops is not part of sim.Probe: drops belong to the input
// stream, not to any collector's run, so the replay harness reports
// them once per damaged source alongside the runs it fed.
func (a *Auditor) NoteDrops(label string, d trace.DropStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.run(label)
	if d.CorruptRecords < 0 || d.TornTail < 0 {
		r.report(0, "drop-accounting",
			"negative drop counts: corrupt=%d torn=%d", d.CorruptRecords, d.TornTail)
	}
	if d.TornTail > 1 {
		r.report(0, "drop-accounting",
			"torn tail recorded %d times; a stream ends at most once", d.TornTail)
	}
	if (d.BytesDropped > 0) != d.Any() {
		r.report(0, "drop-accounting",
			"%d byte(s) dropped inconsistent with corrupt=%d torn=%d: every drop must be typed and every type must cost bytes",
			d.BytesDropped, d.CorruptRecords, d.TornTail)
	}
}

// EndOfStream declares that no more events will arrive, as at the end
// of a captured telemetry file: every run that started but never
// finished is reported under "run-sequence".
func (a *Auditor) EndOfStream() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, label := range a.order {
		if r := a.runs[label]; r.started && !r.finished {
			r.report(0, "run-sequence", "no RunFinish before the end of the stream")
		}
	}
}

// checkFinishHistory cross-checks the final Result against the event
// stream the auditor observed; callers hold a.mu.
func (a *Auditor) checkFinishHistory(r *runAudit, res *sim.Result) {
	if res.Collections != len(r.hist) {
		r.report(0, "finish-history",
			"Result.Collections=%d but %d scavenge events were observed", res.Collections, len(r.hist))
	}
	hist := res.History.Scavenges
	if len(hist) != len(r.hist) || len(res.Pauses) != len(r.hist) {
		r.report(0, "finish-history",
			"History has %d entries and Pauses %d for %d observed scavenges",
			len(hist), len(res.Pauses), len(r.hist))
	}
	var tracedTotal uint64
	for i, s := range r.hist {
		tracedTotal += s.Traced
		if i < len(hist) && hist[i] != s {
			r.report(s.N, "finish-history",
				"History entry %+v does not reproduce the observed scavenge event", hist[i])
		}
		if i < len(res.Pauses) && math.Float64bits(res.Pauses[i]) != math.Float64bits(r.pauses[i]) {
			r.report(s.N, "finish-history",
				"Pauses[%d]=%.9g differs from the observed pause %.9g", i, res.Pauses[i], r.pauses[i])
		}
	}
	if res.TracedTotalBytes != tracedTotal {
		r.report(0, "finish-history",
			"TracedTotalBytes=%d but the observed scavenges traced %d", res.TracedTotalBytes, tracedTotal)
	}
}

// checkFinishStats checks the Result's aggregate statistics for
// internal consistency; callers hold a.mu.
func (a *Auditor) checkFinishStats(r *runAudit, res *sim.Result) {
	if res.MemMeanBytes > res.MemMaxBytes {
		r.report(0, "finish-stats",
			"memory mean %.1f exceeds memory max %.1f", res.MemMeanBytes, res.MemMaxBytes)
	}
	if res.LiveMeanBytes > res.LiveMaxBytes {
		r.report(0, "finish-stats",
			"live mean %.1f exceeds live max %.1f", res.LiveMeanBytes, res.LiveMaxBytes)
	}
	if res.LiveMaxBytes > res.MemMaxBytes {
		r.report(0, "finish-stats",
			"live max %.1f exceeds memory max %.1f: the live floor pierced the memory curve",
			res.LiveMaxBytes, res.MemMaxBytes)
	}
	if res.ExecSeconds > 0 {
		want := 100 * r.machine.PauseSeconds(res.TracedTotalBytes) / res.ExecSeconds
		if math.Float64bits(res.OverheadPct) != math.Float64bits(want) {
			r.report(0, "finish-stats",
				"OverheadPct=%.9g does not equal 100*trace_time/exec_time=%.9g", res.OverheadPct, want)
		}
	}
}

var _ sim.Probe = (*Auditor)(nil)
