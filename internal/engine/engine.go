// Package engine is the evaluation chassis: one generate/decode pass
// over a trace fanned out to N independent sim.Runners, plus a bounded
// worker pool that schedules workload jobs under context cancellation.
//
// The paper's entire evaluation is "one trace, many collectors"
// (§5–6): every workload replays under six policies plus the NoGC and
// Live baselines. Replay feeds each event exactly once to every
// runner, so the trace is produced once per workload regardless of
// collector count. A Source has one shape — event batches — and
// adapters cover the trace forms: SliceSource (zero-copy subslices),
// ReaderSource (batch decoding through either trace.Reader mode, strict
// or recovering) and Events (a per-event producer such as
// workload.Profile.GenerateTo), so a streamed trace never materializes
// in memory. An interrupted Replay returns a Checkpoint whose Resume
// continues it. RunJobs schedules those per-workload replays on a
// bounded pool with fail-fast cancellation and deterministic result
// assembly; every future scaling layer (policy sweeps, sharded runs,
// learned-policy search) plugs into the same two primitives.
package engine

import (
	"context"
	"io"

	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Source streams one trace as event batches in trace order: it calls
// emit for each batch and stops at the first emit error, which it
// returns unchanged (wrapped errors keep working with errors.Is).
// Batches are delivery units only — checkpoints remain event-granular
// (see Checkpoint) — and the slice passed to emit is only valid for
// the duration of the call.
//
// A Source that fails mid-stream must emit the events it decoded
// before the failure first (see Events): replay checkpoints assume
// every decoded event before the error reached the runners.
type Source func(emit func([]trace.Event) error) error

// replayBatchEvents is the batch granularity of the replay hot path:
// the number of events decoded, delivered to the fleet, and covered by
// one cancellation check. Large enough to amortize the per-batch costs
// (context check, fleet dispatch) to nothing per event, small enough
// that cancellation still lands within a sliver of a run and a pending
// batch stays cache-resident (~4096 × 32-byte resolved events = two
// L2 pages).
const replayBatchEvents = 4096

// SliceSource adapts an in-memory trace to a Source, emitting
// zero-copy subslices of at most replayBatchEvents events. The source
// can run any number of times: repeated replays and a Resume may reuse
// one SliceSource value.
func SliceSource(events []trace.Event) Source {
	return func(emit func([]trace.Event) error) error {
		for lo := 0; lo < len(events); lo += replayBatchEvents {
			if err := emit(events[lo:min(lo+replayBatchEvents, len(events))]); err != nil {
				return err
			}
		}
		return nil
	}
}

// ReaderSource adapts a trace decoder — strict or recovering, the two
// trace.Reader modes — to a Source using Reader.ReadBatch: one decode
// loop fills a reused buffer per batch, so memory use is bounded by
// the batch and the simulated heaps, not the trace length.
func ReaderSource(rd *trace.Reader) Source {
	return func(emit func([]trace.Event) error) error {
		buf := make([]trace.Event, replayBatchEvents)
		for {
			n, err := rd.ReadBatch(buf)
			if n > 0 {
				if eerr := emit(buf[:n]); eerr != nil {
					return eerr
				}
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// Events adapts a per-event producer — workload.Profile.GenerateTo is
// the canonical one — to a Source by buffering up to
// replayBatchEvents events per emit. If the producer fails
// mid-stream, the buffered prefix is flushed before the error is
// returned, so every event the producer made has reached the runners:
// that is what keeps checkpoints event-granular. If both the flush and
// the producer fail, the flush error wins (it decides resumability).
func Events(gen func(emit func(trace.Event) error) error) Source {
	return func(emit func([]trace.Event) error) error {
		buf := make([]trace.Event, 0, replayBatchEvents)
		err := gen(func(e trace.Event) error {
			buf = append(buf, e)
			if len(buf) == cap(buf) {
				ferr := emit(buf)
				buf = buf[:0]
				return ferr
			}
			return nil
		})
		if len(buf) > 0 {
			if ferr := emit(buf); ferr != nil {
				return ferr
			}
		}
		return err
	}
}

// Replay feeds the source's events once to one fresh runner per config
// and returns the finished results in config order. The source runs
// exactly once no matter how many configs there are — the single-pass
// fan-out the evaluation harness is built on.
//
// Each runner is single-threaded and sees the identical event sequence
// a solo run would, so every result (History and telemetry sequence
// included) is bit-identical to an independent run over the same
// trace. Cancellation of ctx is checked once per batch and returns
// ctx's error.
//
// Errors come in two classes. Source failures and cancellation land
// between events, so they return a non-nil Checkpoint from which
// Resume continues. Config errors and runner feed errors (a trace
// validation error, labelled with the collector's name) return a nil
// checkpoint: there is nothing consistent to resume. On success the
// checkpoint is nil.
func Replay(ctx context.Context, src Source, cfgs []sim.Config) ([]*sim.Result, *Checkpoint, error) {
	// NewFleet validates every config before any runner opens a
	// telemetry stream, so a config error leaves no stream unfinished.
	fleet, err := sim.NewFleet(cfgs)
	if err != nil {
		return nil, nil, err
	}
	return replayFrom(ctx, src, fleet, 0)
}
