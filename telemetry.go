package dtbgc

// Observability facade: the simulator's Probe interface, its typed
// event stream, and the two stock sinks, re-exported so programs can
// watch a run — or a whole evaluation — as it happens instead of
// waiting for the post-hoc Result. The paper's collectors are defined
// by reacting to per-scavenge measurements; a Probe is the tap on
// exactly those measurements.

import (
	"io"

	"github.com/dtbgc/dtbgc/internal/sim"
)

// Probe observes a simulation run: one RunStart, then per scavenge a
// Decision (the boundary the policy chose, and the candidate boundary
// ages it chose among) followed by a ScavengeEvent (bytes traced,
// reclaimed, surviving, the pause, the tenured-garbage estimate and
// the trigger reason), Progress heartbeats during allocation, and a
// final RunFinish carrying the Result.
//
// Telemetry observes, never influences: attaching a Probe cannot
// change a run's result, and a nil Probe adds no allocations to the
// simulator's hot path. Implementations attached to a concurrent
// evaluation (EvalOptions.Probe) must be safe for concurrent use;
// both stock sinks are.
type Probe = sim.Probe

// RunStart announces a run and its fixed configuration.
type RunStart = sim.RunStart

// Decision records one boundary-policy decision, emitted before the
// scavenge runs.
type Decision = sim.Decision

// ScavengeEvent records one completed scavenge; its fields match the
// run's final History and Pauses entries.
type ScavengeEvent = sim.ScavengeEvent

// Progress is the periodic allocation heartbeat (cadence set by
// SimOptions.ProgressBytes).
type Progress = sim.Progress

// RunFinish closes a run's event stream with its final Result.
type RunFinish = sim.RunFinish

// TriggerReason says why a scavenge ran: the byte trigger elapsed, or
// an opportunistic Mark-event scavenge fired.
type TriggerReason = sim.TriggerReason

const (
	// TriggerByteBudget marks a scavenge scheduled by the allocation
	// interval (SimOptions.TriggerBytes).
	TriggerByteBudget = sim.TriggerByteBudget
	// TriggerMark marks an opportunistic scavenge at a program
	// quiescent point (SimOptions.Opportunistic).
	TriggerMark = sim.TriggerMark
)

// TelemetryWriter is the machine-consumption sink: one JSON object
// per telemetry event, one event per line. See the README's
// Observability section for the line schema; cmd/dtbtelemetrycheck
// checks a captured stream against the writer's exact encoding and
// the invariant auditor.
type TelemetryWriter = sim.TelemetryWriter

// NewTelemetryWriter returns a JSON-lines telemetry sink writing to
// w. Check Err after the run: write errors are sticky and reported
// there rather than interrupting the simulation.
func NewTelemetryWriter(w io.Writer) *TelemetryWriter { return sim.NewTelemetryWriter(w) }

// ProgressReporter is the human-consumption sink: a start line, a
// periodic progress heartbeat, and a one-line summary per finished
// run — what you want on stderr during a long RunPaperEvaluation.
type ProgressReporter = sim.ProgressReporter

// NewProgressReporter returns a progress/summary sink writing to w
// (typically os.Stderr).
func NewProgressReporter(w io.Writer) *ProgressReporter { return sim.NewProgressReporter(w) }
