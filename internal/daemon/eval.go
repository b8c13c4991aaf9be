// Package daemon is the simulation-as-a-service layer: a long-running
// HTTP/JSON server (dtbd) that accepts policy-evaluation requests —
// a workload or an uploaded trace × a policy spec × a machine model —
// runs each admitted one as a cancellable replay, and returns results
// bit-identical to the CLI path over the same inputs.
//
// The serving economics rest on two content-addressed caches (see
// cache.go): uploaded traces are stream-hashed at decode time into a
// trace.Digest that keys a decoded-tape LRU, and every complete
// evaluation key memoizes its marshaled response, so one warm process
// answers a repeated request in a table lookup instead of a cold CLI
// start that re-decodes and re-simulates everything. Admission
// control (a bounded worker pool plus a bounded wait queue, 429 +
// Retry-After on overflow) keeps thousands of concurrent clients
// degrading gracefully instead of piling unbounded replays onto the
// box; SIGTERM drains in-flight evaluations before exit.
//
// Everything here observes the repo's determinism discipline except
// wall-clock metrics: serving latencies are real time by nature, and
// internal/daemon + cmd/dtbd carry dtbvet's serving-package exemption
// for exactly that — simulation results never depend on the clock.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// MachineSpec is the wire form of the simulated machine model.
type MachineSpec struct {
	MIPS          float64 `json:"mips"`
	TraceBytesPer float64 `json:"trace_bytes_per_sec"`
}

// EvalRequest asks for one collector evaluation. Exactly one of
// Workload/TraceDigest selects the event source, and at most one of
// Policy/Baseline selects the collector (an empty Baseline means
// Policy, mirroring dtbsim's flags). Zero-valued knobs take the same
// defaults the CLIs use, and the normalized form — not the raw
// request — is the memo key, so "-trigger 1048576" and the default
// hit the same entry.
type EvalRequest struct {
	// Workload names a paper workload ("CFRAC", "GHOST(1)", ...);
	// Scale shrinks it (0 = 1.0). Scale conflicts with TraceDigest for
	// the same reason dtbsim rejects -scale with -trace.
	Workload string  `json:"workload,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// TraceDigest is the hex content digest of a previously uploaded
	// trace (POST /v1/traces). An unknown digest fails with 404 and
	// ErrUnknownTrace so clients can upload and retry.
	TraceDigest string `json:"trace,omitempty"`

	// Policy is a spec for dtbgc.ParsePolicy ("full", "dtbfm:50k",
	// ...); Baseline is "nogc" or "live".
	Policy   string `json:"policy,omitempty"`
	Baseline string `json:"baseline,omitempty"`

	Machine       *MachineSpec `json:"machine,omitempty"`
	TriggerBytes  uint64       `json:"trigger_bytes,omitempty"`
	PolicySeed    uint64       `json:"policy_seed,omitempty"`
	Opportunistic bool         `json:"opportunistic,omitempty"`
	PageFrames    int          `json:"page_frames,omitempty"`
	PageBytes     uint64       `json:"page_bytes,omitempty"`

	// Label tags the run exactly as SimOptions.Label does: it feeds
	// adaptive-policy seed derivation and every telemetry line, so it
	// is part of the memo key. Leave "" to match dtbsim's no-telemetry
	// invocation.
	Label string `json:"label,omitempty"`
	// Telemetry requests the run's JSON-lines telemetry stream in the
	// response, captured by a per-request sink (never shared between
	// requests — see the sharing contract on sim.TelemetryWriter).
	Telemetry bool `json:"telemetry,omitempty"`

	// DeadlineMs bounds the evaluation itself; past it the replay
	// aborts at its next batch boundary and the request fails with
	// 504. It is a serving knob, not a result-affecting one, so it is
	// NOT part of the memo key.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// evalPayload is the memoized portion of an eval response: everything
// deterministic for the key. The memo stores these marshaled bytes
// verbatim, so a warm hit re-serves byte-identical JSON.
type evalPayload struct {
	Result    json.RawMessage `json:"result"`
	Telemetry string          `json:"telemetry,omitempty"`
}

// EvalResponse is the POST /v1/eval payload.
type EvalResponse struct {
	// Source says how the evaluation was served: "memo" (table
	// lookup), "tape" (replayed over a cached decoded tape) or "cold"
	// (replayed from scratch).
	Source string `json:"source"`
	// ServiceMs is the server-side wall time for this request.
	ServiceMs float64 `json:"service_ms"`
	// Result is the marshaled dtbgc.Result, bit-identical across
	// memo/tape/cold for the same key.
	Result json.RawMessage `json:"result"`
	// Telemetry carries the run's JSON-lines stream when requested.
	Telemetry string `json:"telemetry,omitempty"`
}

// ErrUnknownTrace reports an eval against a digest the daemon does
// not hold (never uploaded, or evicted): upload the trace and retry.
type ErrUnknownTrace struct{ Digest string }

func (e *ErrUnknownTrace) Error() string {
	return fmt.Sprintf("daemon: unknown trace %s: upload it (POST /v1/traces) and retry", e.Digest)
}

// errBadRequest marks a request the server refuses on sight (HTTP
// 400), as opposed to one that failed while evaluating.
type errBadRequest struct{ err error }

func (e *errBadRequest) Error() string { return e.err.Error() }
func (e *errBadRequest) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return &errBadRequest{err: fmt.Errorf(format, args...)}
}

// normalize validates the request and applies the CLI-equivalent
// defaults in place, so the memo key is canonical.
func (r *EvalRequest) normalize() error {
	if (r.Workload == "") == (r.TraceDigest == "") {
		return badRequestf("exactly one of workload or trace must be set")
	}
	if r.Policy != "" && r.Baseline != "" {
		return badRequestf("policy %q conflicts with baseline %q: a run is driven by one or the other", r.Policy, r.Baseline)
	}
	switch r.Baseline {
	case "", "nogc", "live":
	default:
		return badRequestf("unknown baseline %q (nogc or live)", r.Baseline)
	}
	if r.Baseline == "" {
		if _, err := dtbgc.ParsePolicy(r.Policy); err != nil {
			return &errBadRequest{err: err}
		}
	}
	if r.TraceDigest != "" {
		if r.Scale != 0 { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel; no arithmetic feeds it
			return badRequestf("scale applies to generated workloads and cannot rescale a recorded trace")
		}
		d, err := trace.ParseDigest(r.TraceDigest)
		if err != nil {
			return &errBadRequest{err: err}
		}
		r.TraceDigest = d.String() // canonical lowercase hex
	} else {
		if _, err := dtbgc.LookupWorkload(r.Workload); err != nil {
			return &errBadRequest{err: err}
		}
		if r.Scale == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel; no arithmetic feeds it
			r.Scale = 1
		}
		if r.Scale < 0 {
			return badRequestf("scale %v must be positive", r.Scale)
		}
	}
	if r.Machine == nil {
		m := dtbgc.PaperMachine()
		r.Machine = &MachineSpec{MIPS: m.MIPS, TraceBytesPer: m.TraceBytesPer}
	}
	if err := (dtbgc.Machine{MIPS: r.Machine.MIPS, TraceBytesPer: r.Machine.TraceBytesPer}).Validate(); err != nil {
		return &errBadRequest{err: err}
	}
	if r.TriggerBytes == 0 {
		r.TriggerBytes = 1 << 20 // the simulator's own default
	}
	if r.PageFrames < 0 {
		return badRequestf("page_frames %d cannot be negative", r.PageFrames)
	}
	switch {
	case r.PageFrames == 0:
		r.PageBytes = 0 // no page model, so the page size changes nothing
	case r.PageBytes == 0:
		r.PageBytes = 4096
	}
	if r.DeadlineMs < 0 {
		return badRequestf("deadline_ms %d cannot be negative", r.DeadlineMs)
	}
	return nil
}

// memoKey is the canonical serialization of everything that can
// change the response bytes. Field order is fixed by the struct, and
// floats render shortest-round-trip, so equal requests always collide
// and unequal ones never do.
func (r *EvalRequest) memoKey() string {
	var b bytes.Buffer
	b.WriteString("w=")
	b.WriteString(r.Workload)
	b.WriteString(";s=")
	b.WriteString(strconv.FormatFloat(r.Scale, 'g', -1, 64))
	b.WriteString(";t=")
	b.WriteString(r.TraceDigest)
	b.WriteString(";p=")
	b.WriteString(r.Policy)
	b.WriteString(";b=")
	b.WriteString(r.Baseline)
	b.WriteString(";m=")
	b.WriteString(strconv.FormatFloat(r.Machine.MIPS, 'g', -1, 64))
	b.WriteString(",")
	b.WriteString(strconv.FormatFloat(r.Machine.TraceBytesPer, 'g', -1, 64))
	b.WriteString(";tr=")
	b.WriteString(strconv.FormatUint(r.TriggerBytes, 10))
	b.WriteString(";seed=")
	b.WriteString(strconv.FormatUint(r.PolicySeed, 10))
	b.WriteString(";opp=")
	b.WriteString(strconv.FormatBool(r.Opportunistic))
	b.WriteString(";pf=")
	b.WriteString(strconv.Itoa(r.PageFrames))
	b.WriteString(";pb=")
	b.WriteString(strconv.FormatUint(r.PageBytes, 10))
	b.WriteString(";l=")
	b.WriteString(strconv.Quote(r.Label))
	b.WriteString(";tel=")
	b.WriteString(strconv.FormatBool(r.Telemetry))
	return b.String()
}

// options maps the normalized request onto the same SimOptions dtbsim
// builds — the single place the daemon's and the CLI's configuration
// can agree or drift, pinned by the bit-identity tests.
func (r *EvalRequest) options(probe dtbgc.Probe) (dtbgc.SimOptions, error) {
	opts := dtbgc.SimOptions{
		PolicySeed:    r.PolicySeed,
		Machine:       dtbgc.Machine{MIPS: r.Machine.MIPS, TraceBytesPer: r.Machine.TraceBytesPer},
		TriggerBytes:  r.TriggerBytes,
		Opportunistic: r.Opportunistic,
		PageFrames:    r.PageFrames,
		PageBytes:     r.PageBytes,
		Probe:         probe,
		Label:         r.Label,
	}
	switch r.Baseline {
	case "nogc":
		opts.NoGC = true
	case "live":
		opts.LiveOracle = true
	default:
		p, err := dtbgc.ParsePolicy(r.Policy)
		if err != nil {
			return dtbgc.SimOptions{}, &errBadRequest{err: err}
		}
		opts.Policy = p
	}
	return opts, nil
}

// evaluate runs one cold evaluation on the calling goroutine and
// returns the marshaled memo payload. The request must be normalized.
// The caller holds a worker slot, so admission alone bounds how many
// evaluations run at once.
//
// An expired per-request deadline surfaces as the replay's
// context.DeadlineExceeded (504); a client that went away cancels ctx
// and surfaces as context.Canceled (499).
func (s *Server) evaluate(ctx context.Context, req *EvalRequest) (payload []byte, tapeHit bool, err error) {
	var telBuf bytes.Buffer
	var tw *dtbgc.TelemetryWriter
	var probe dtbgc.Probe
	if req.Telemetry {
		// Per-request sink over a per-request buffer: the enforced
		// pattern. A shared sink would interleave concurrent requests'
		// streams and let one request's sticky write error silence
		// another's telemetry.
		tw = dtbgc.NewTelemetryWriter(&telBuf)
		probe = tw
	}
	opts, err := req.options(probe)
	if err != nil {
		return nil, false, err
	}

	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	var src dtbgc.EventSource
	if req.TraceDigest != "" {
		d, derr := trace.ParseDigest(req.TraceDigest)
		if derr != nil {
			return nil, false, derr
		}
		events, ok := s.tapes.get(d)
		if !ok {
			return nil, false, &ErrUnknownTrace{Digest: req.TraceDigest}
		}
		tapeHit = true
		src = dtbgc.SliceSource(events)
	} else {
		w, lerr := dtbgc.LookupWorkload(req.Workload)
		if lerr != nil {
			return nil, false, lerr
		}
		src = dtbgc.Events(w.Scale(req.Scale).GenerateTo)
	}
	results, err := dtbgc.ReplayAll(ctx, src, []dtbgc.SimOptions{opts})
	if err != nil {
		return nil, tapeHit, err
	}
	if tw != nil {
		if werr := tw.Err(); werr != nil {
			return nil, tapeHit, fmt.Errorf("capturing telemetry: %w", werr)
		}
	}
	raw, err := json.Marshal(results[0])
	if err != nil {
		return nil, tapeHit, err
	}
	payload, err = json.Marshal(evalPayload{Result: raw, Telemetry: telBuf.String()})
	return payload, tapeHit, err
}

// isDeadline reports a job-originated evaluation timeout (as opposed
// to the client going away, which cancels the request context).
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }
