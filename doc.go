// Package dtbgc is a library reproduction of Barrett & Zorn's
// "Garbage Collection using a Dynamic Threatening Boundary"
// (CU-CS-659-93 / PLDI 1995).
//
// The library provides:
//
//   - the threatening-boundary collector framework and the six policies
//     of the paper's Table 1 (Full, Fixed1, Fixed4, FeedMed, DtbFM,
//     DtbMem), constructed here via FullPolicy, FixedPolicy,
//     FeedMedPolicy, PausePolicy/DtbFMPolicy and MemoryPolicy;
//   - a trace-driven simulator (Simulate) with the paper's machine
//     model: 10 MIPS, 500 KB/s tracing, 1 MB scavenge trigger;
//   - a malloc/free/pointer-store trace substrate with binary and text
//     codecs (ReadTrace/WriteTrace);
//   - calibrated synthetic workloads reproducing the paper's six
//     evaluation runs (Workloads, WorkloadByName). WorkloadByName
//     panics on unknown names and is meant for compile-time constants;
//     code resolving dynamic input — CLI flags, config files — should
//     use LookupWorkload, which returns an error listing the valid
//     names instead;
//   - the full evaluation harness (RunPaperEvaluation) regenerating
//     Tables 2, 3, 4 and 6 and the Figure 2 memory curves;
//   - a single-pass replay engine (ReplayAll with an EventSource, a
//     stream of event batches): one trace — from a workload generator
//     (Events), a binary trace file (StreamSource, or RecoveringSource
//     for a damaged one; both batch-decode through the one binary
//     trace decoder, and SimulateStream is a one-collector replay of
//     StreamSource) or a slice (SliceSource) — is fed exactly once to
//     any number of collectors, with results bit-identical to solo
//     Simulate calls; an interrupted replay resumes from its
//     Checkpoint (ReplayAllResumable);
//     the evaluation harnesses run on it under bounded parallelism
//     with context cancellation (RunPaperEvaluationContext);
//   - per-scavenge telemetry: a Probe set on SimOptions or EvalOptions
//     observes every run (policy decisions with candidate boundaries,
//     scavenge outcomes with tenured garbage, allocation progress)
//     without influencing it, with stock JSON-lines and human progress
//     sinks (NewTelemetryWriter, NewProgressReporter).
//
// # Quick start
//
//	events := dtbgc.WorkloadByName("GHOST(1)").MustGenerate()
//	res, err := dtbgc.Simulate(events, dtbgc.SimOptions{
//		Policy: dtbgc.PausePolicy(100 * time.Millisecond),
//	})
//	fmt.Println(res.MedianPauseSeconds())
//
// A reachability-based copying collector over a byte-array heap, the
// mechanism the paper's §4.2 describes (single remembered set of all
// forward-in-time pointers, write barrier, untenuring), lives in
// internal/gc and is exercised by the Figure-1 example and tests; the
// four mini-applications standing in for the paper's GhostScript /
// Espresso / SIS / Cfrac workloads live under internal/apps and are
// runnable via cmd/dtbapps.
package dtbgc
