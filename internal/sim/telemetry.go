package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// TelemetryWriter is the machine-consumption Probe: it writes one JSON
// object per event, one event per line, to an io.Writer.
//
// Every line carries an "event" discriminator ("run_start",
// "decision", "scavenge", "progress", "run_finish", "drops") and a
// "label" naming the run; the remaining fields are fixed per event
// type. The envelope structs below are the schema's one definition:
// TelemetryReader decodes with them and accepts only the bytes this
// writer emits (the README's Observability section documents the
// fields, cmd/dtbtelemetrycheck enforces them in CI). Allocation-clock
// readings and byte counts are emitted as raw bytes — consumers scale.
//
// The writer is safe for concurrent use by several runs (the
// evaluation harness runs workloads in parallel); lines from
// concurrent runs interleave but each line is whole, so demux by
// label. Write errors are sticky: the first one is retained, later
// events are dropped, and Err reports it when the run is over.
//
// The sharing contract, pinned by the race tests: the mutex covers
// this sink's own emits and nothing beyond. Sharing is sound only
// when (1) every concurrent run carries a unique label — a label
// collision produces interleaved streams no consumer can demux (and
// corrupts label-keyed sinks like the auditor) — and (2) the sink
// owns its writer exclusively; two sinks over one writer interleave
// mid-line because each locks only itself. Servers handling
// independent requests should not share sinks at all: build one
// writer per request over its own stream (the pattern internal/daemon
// enforces), which also keeps one slow or failed request's sticky
// error from silencing every other request's telemetry.
type TelemetryWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewTelemetryWriter returns a JSON-lines telemetry sink writing to w.
func NewTelemetryWriter(w io.Writer) *TelemetryWriter {
	return &TelemetryWriter{enc: json.NewEncoder(w)}
}

// Err returns the first write or encode error, or nil.
func (t *TelemetryWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *TelemetryWriter) emit(v any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(v)
}

// The wire envelopes. Field order here is emission order (encoding/
// json preserves struct order), so the stream is byte-for-byte
// deterministic for a deterministic run. TelemetryReader decodes into
// the same structs. Where a line carries an event struct field for
// field, the fields sit in an embedded wire struct that converts to
// and from the event (scavengeWire, progressWire, dropsWire), so the
// compiler keeps the two in step.

type jsonRunStart struct {
	Event         string  `json:"event"`
	Label         string  `json:"label"`
	Collector     string  `json:"collector"`
	MIPS          float64 `json:"mips"`
	TraceBytesPer float64 `json:"trace_bytes_per_sec"`
	TriggerBytes  uint64  `json:"trigger_bytes"`
	ProgressBytes uint64  `json:"progress_bytes"`
	Opportunistic bool    `json:"opportunistic"`
}

type jsonDecision struct {
	Event      string        `json:"event"`
	Label      string        `json:"label"`
	N          int           `json:"n"`
	Trigger    TriggerReason `json:"trigger"`
	Now        core.Time     `json:"now"`
	TB         core.Time     `json:"tb"`
	Candidates []core.Time   `json:"candidates"`
	MemBefore  uint64        `json:"mem_before"`
	LiveBefore uint64        `json:"live_before"`
	// Adaptive-policy extras, trailing and omitted for pure policies so
	// pre-existing streams are byte-for-byte unchanged. Arm is a pointer
	// because arm 0 is meaningful (a full collection) while policies
	// without arms (the gradient) report none at all, and unsigned
	// because no arm index is negative.
	Arm            *uint  `json:"arm,omitempty"`
	FeaturesDigest string `json:"features_digest,omitempty"`
}

type jsonScavenge struct {
	Event string `json:"event"`
	scavengeWire
}

// scavengeWire is ScavengeEvent with wire names.
type scavengeWire struct {
	Label          string        `json:"label"`
	N              int           `json:"n"`
	Trigger        TriggerReason `json:"trigger"`
	T              core.Time     `json:"t"`
	TB             core.Time     `json:"tb"`
	MemBefore      uint64        `json:"mem_before"`
	Traced         uint64        `json:"traced"`
	Reclaimed      uint64        `json:"reclaimed"`
	Surviving      uint64        `json:"surviving"`
	Live           uint64        `json:"live"`
	TenuredGarbage uint64        `json:"tenured_garbage"`
	PauseSeconds   float64       `json:"pause_seconds"`
}

type jsonProgress struct {
	Event string `json:"event"`
	progressWire
}

// progressWire is Progress with wire names.
type progressWire struct {
	Label       string    `json:"label"`
	Events      int       `json:"events"`
	Instr       uint64    `json:"instr"`
	Clock       core.Time `json:"allocated"`
	InUse       uint64    `json:"in_use"`
	Live        uint64    `json:"live"`
	Collections int       `json:"collections"`
}

type jsonDrops struct {
	Event string `json:"event"`
	Label string `json:"label"`
	dropsWire
}

// dropsWire is trace.DropStats with wire names.
type dropsWire struct {
	CorruptRecords int    `json:"corrupt_records"`
	TornTail       int    `json:"torn_tail_records"`
	BytesDropped   uint64 `json:"bytes_dropped"`
}

type jsonRunFinish struct {
	Event            string  `json:"event"`
	Label            string  `json:"label"`
	Collector        string  `json:"collector"`
	Collections      int     `json:"collections"`
	TotalAlloc       uint64  `json:"total_alloc"`
	ExecSeconds      float64 `json:"exec_seconds"`
	MemMeanBytes     float64 `json:"mem_mean_bytes"`
	MemMaxBytes      float64 `json:"mem_max_bytes"`
	LiveMeanBytes    float64 `json:"live_mean_bytes"`
	LiveMaxBytes     float64 `json:"live_max_bytes"`
	TracedTotalBytes uint64  `json:"traced_total_bytes"`
	OverheadPct      float64 `json:"overhead_pct"`
	PauseP50Seconds  float64 `json:"pause_p50_seconds"`
	PauseP90Seconds  float64 `json:"pause_p90_seconds"`
}

// RunStart implements Probe.
func (t *TelemetryWriter) RunStart(e RunStart) {
	t.emit(jsonRunStart{
		Event: "run_start", Label: e.Label, Collector: e.Collector,
		MIPS: e.Machine.MIPS, TraceBytesPer: e.Machine.TraceBytesPer,
		TriggerBytes: e.TriggerBytes, ProgressBytes: e.ProgressBytes,
		Opportunistic: e.Opportunistic,
	})
}

// Decision implements Probe.
func (t *TelemetryWriter) Decision(e Decision) {
	d := jsonDecision{
		Event: "decision", Label: e.Label, N: e.N, Trigger: e.Trigger,
		Now: e.Now, TB: e.TB, Candidates: e.Candidates,
		MemBefore: e.MemBefore, LiveBefore: e.LiveBefore,
	}
	if a := e.Adaptive; a != nil {
		if a.Arm >= 0 {
			arm := uint(a.Arm)
			d.Arm = &arm
		}
		d.FeaturesDigest = fmt.Sprintf("%016x", a.FeatureDigest)
	}
	t.emit(d)
}

// Scavenge implements Probe.
func (t *TelemetryWriter) Scavenge(e ScavengeEvent) {
	t.emit(jsonScavenge{"scavenge", scavengeWire(e)})
}

// Progress implements Probe.
func (t *TelemetryWriter) Progress(e Progress) {
	t.emit(jsonProgress{"progress", progressWire(e)})
}

// RunFinish implements Probe.
func (t *TelemetryWriter) RunFinish(e RunFinish) {
	r := e.Result
	t.emit(jsonRunFinish{
		Event: "run_finish", Label: e.Label, Collector: r.Collector,
		Collections: r.Collections, TotalAlloc: r.TotalAlloc,
		ExecSeconds: r.ExecSeconds, MemMeanBytes: r.MemMeanBytes,
		MemMaxBytes: r.MemMaxBytes, LiveMeanBytes: r.LiveMeanBytes,
		LiveMaxBytes: r.LiveMaxBytes, TracedTotalBytes: r.TracedTotalBytes,
		OverheadPct:     r.OverheadPct,
		PauseP50Seconds: stats.Percentile(r.Pauses, 50),
		PauseP90Seconds: stats.Percentile(r.Pauses, 90),
	})
}

// Drops records recovery-mode trace damage in the telemetry stream: a
// "drops" line carrying the trace.DropStats accounting for the named
// run (or trace). It is not part of the Probe interface — drops are a
// property of the input stream, not of any one collector's run — so
// the replay harness calls it once per damaged source, after the runs
// it fed. Nothing is written when d is empty: an absent "drops" line
// means the stream decoded completely.
func (t *TelemetryWriter) Drops(label string, d trace.DropStats) {
	if !d.Any() {
		return
	}
	t.emit(jsonDrops{"drops", label, dropsWire(d)})
}

// TelemetryReader is TelemetryWriter's inverse: it decodes a JSON-lines
// telemetry stream back into the typed events, one line per Next.
//
// A line is accepted only if it is byte for byte what TelemetryWriter
// writes for the event it decodes to: the reader decodes into the
// writer's envelopes and re-encodes the event through a writer. For
// run_finish, it rebuilds the run's Result from the summary fields plus
// the History and Pauses of that label's scavenge lines, so the pause
// percentiles are re-derived and checked too. The reader checks the
// encoding only; whether the events obey the paper's identities is the
// job of the Probe they are delivered to (internal/audit's Auditor).
type TelemetryReader struct {
	sc    *bufio.Scanner
	lines int
	runs  map[string]*Result // per label: History and Pauses of the scavenge lines since run_start
	buf   bytes.Buffer       // the writer's encoding of the current line's event
}

// NewTelemetryReader returns a reader over a JSON-lines telemetry
// stream.
func NewTelemetryReader(r io.Reader) *TelemetryReader {
	tr := &TelemetryReader{sc: bufio.NewScanner(r), runs: make(map[string]*Result)}
	tr.sc.Buffer(nil, 1<<20)
	tr.sc.Split(scanLine)
	return tr
}

// scanLine splits after each newline and keeps it, so a line is
// compared with the writer's output terminator included.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Lines returns the number of lines read so far.
func (tr *TelemetryReader) Lines() int { return tr.lines }

// TelemetryLineError reports a telemetry line that is not exactly what
// TelemetryWriter writes.
type TelemetryLineError struct {
	Line  int    // 1-based line number
	Event string // the line's event type, "" when it has none
	Err   error
}

func (e *TelemetryLineError) Error() string {
	if e.Event == "" {
		return fmt.Sprintf("line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("line %d: %s: %v", e.Line, e.Event, e.Err)
}

// Next reads one line and delivers its event to p, or a drops line to
// drops (which must be non-nil). It returns io.EOF after the last
// line, a *TelemetryLineError for a line that is not the writer's
// encoding of its event (the stream stays readable), or the underlying
// reader's error. A line that decodes to well-typed fields is
// delivered even when its encoding differs from the writer's, so the
// event's own rules are still checked; a line that does not decode is
// not delivered.
func (tr *TelemetryReader) Next(p Probe, drops func(label string, d trace.DropStats)) error {
	if !tr.sc.Scan() {
		if err := tr.sc.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	tr.lines++
	line := tr.sc.Bytes()
	lineErr := func(event string, err error) error {
		return &TelemetryLineError{Line: tr.lines, Event: event, Err: err}
	}
	var head struct {
		Event *string `json:"event"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return lineErr("", describeJSONError(err))
	}
	if head.Event == nil {
		return lineErr("", errors.New(`missing field "event"`))
	}
	var env interface {
		deliver(tr *TelemetryReader, p Probe, drops func(string, trace.DropStats)) error
	}
	switch *head.Event {
	case "run_start":
		env = &jsonRunStart{}
	case "decision":
		env = &jsonDecision{}
	case "scavenge":
		env = &jsonScavenge{}
	case "progress":
		env = &jsonProgress{}
	case "run_finish":
		env = &jsonRunFinish{}
	case "drops":
		env = &jsonDrops{}
	default:
		return lineErr("", fmt.Errorf("unknown event type %q", *head.Event))
	}
	err := DecodeExact(line, env, func() ([]byte, error) {
		tr.buf.Reset()
		tw := NewTelemetryWriter(&tr.buf)
		err := env.deliver(tr, Probes(p, tw), func(label string, d trace.DropStats) {
			drops(label, d)
			tw.Drops(label, d)
		})
		if err == nil {
			err = tw.Err()
		}
		return tr.buf.Bytes(), err
	})
	if err != nil {
		return lineErr(*head.Event, err)
	}
	return nil
}

func (j *jsonRunStart) deliver(tr *TelemetryReader, p Probe, _ func(string, trace.DropStats)) error {
	delete(tr.runs, j.Label)
	p.RunStart(RunStart{
		Label: j.Label, Collector: j.Collector,
		Machine:      Machine{MIPS: j.MIPS, TraceBytesPer: j.TraceBytesPer},
		TriggerBytes: j.TriggerBytes, ProgressBytes: j.ProgressBytes,
		Opportunistic: j.Opportunistic,
	})
	return nil
}

func (j *jsonDecision) deliver(_ *TelemetryReader, p Probe, _ func(string, trace.DropStats)) error {
	e := Decision{
		Label: j.Label, N: j.N, Trigger: j.Trigger, Now: j.Now, TB: j.TB,
		Candidates: j.Candidates, MemBefore: j.MemBefore, LiveBefore: j.LiveBefore,
	}
	if j.Arm != nil || j.FeaturesDigest != "" {
		e.Adaptive = &AdaptiveDecision{Arm: -1}
		if j.Arm != nil {
			e.Adaptive.Arm = int(*j.Arm)
		}
		if j.FeaturesDigest != "" {
			d, err := strconv.ParseUint(j.FeaturesDigest, 16, 64)
			if err != nil {
				return fmt.Errorf(`field "features_digest" is not a 64-bit hex digest: %q`, j.FeaturesDigest)
			}
			e.Adaptive.FeatureDigest = d
		}
	}
	p.Decision(e)
	return nil
}

func (j *jsonScavenge) deliver(tr *TelemetryReader, p Probe, _ func(string, trace.DropStats)) error {
	e := ScavengeEvent(j.scavengeWire)
	r := tr.runs[e.Label]
	if r == nil {
		r = &Result{}
		tr.runs[e.Label] = r
	}
	r.History.Scavenges = append(r.History.Scavenges, e.Entry())
	r.Pauses = append(r.Pauses, e.PauseSeconds)
	p.Scavenge(e)
	return nil
}

func (j *jsonProgress) deliver(_ *TelemetryReader, p Probe, _ func(string, trace.DropStats)) error {
	p.Progress(Progress(j.progressWire))
	return nil
}

func (j *jsonRunFinish) deliver(tr *TelemetryReader, p Probe, _ func(string, trace.DropStats)) error {
	r := tr.runs[j.Label]
	if r == nil {
		r = &Result{}
	}
	delete(tr.runs, j.Label)
	r.Collector, r.Collections, r.TotalAlloc = j.Collector, j.Collections, j.TotalAlloc
	r.ExecSeconds, r.MemMeanBytes, r.MemMaxBytes = j.ExecSeconds, j.MemMeanBytes, j.MemMaxBytes
	r.LiveMeanBytes, r.LiveMaxBytes = j.LiveMeanBytes, j.LiveMaxBytes
	r.TracedTotalBytes, r.OverheadPct = j.TracedTotalBytes, j.OverheadPct
	p.RunFinish(RunFinish{Label: j.Label, Result: r})
	return nil
}

func (j *jsonDrops) deliver(_ *TelemetryReader, _ Probe, drops func(string, trace.DropStats)) error {
	d := trace.DropStats(j.dropsWire)
	if !d.Any() {
		return errors.New("nothing dropped: the writer emits no drops line for an intact stream")
	}
	drops(j.Label, d)
	return nil
}

// DecodeExact decodes the JSON object in data into v and accepts data
// only if it is the canonical encoding of what it decoded to. Unknown
// fields and mistyped values are errors naming the field. After the
// decode, reencode is called to produce the canonical bytes; when they
// differ from data the error names each field that is missing, extra
// or differently valued, or says the difference is in layout alone.
func DecodeExact(data []byte, v any, reencode func() ([]byte, error)) error {
	if err := json.Unmarshal(data, new(json.RawMessage)); err != nil {
		return describeJSONError(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return describeJSONError(err)
	}
	want, err := reencode()
	if err != nil || bytes.Equal(data, want) {
		return err
	}
	gotKeys, got := members(data)
	wantKeys, wantVals := members(want)
	var diffs []string
	for _, k := range wantKeys {
		switch raw, ok := got[k]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("missing field %q", k))
		case !bytes.Equal(raw, wantVals[k]):
			diffs = append(diffs, fmt.Sprintf("field %q is %s, want %s", k, raw, wantVals[k]))
		}
	}
	for _, k := range gotKeys {
		if _, ok := wantVals[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("field %q is never written for this value", k))
		}
	}
	if len(diffs) == 0 {
		return errors.New("not the canonical encoding: field order, duplicates, spacing or escaping differ")
	}
	return errors.New(strings.Join(diffs, "; "))
}

// describeJSONError rewords a decode error so it names the JSON field
// and the type involved.
func describeJSONError(err error) error {
	var te *json.UnmarshalTypeError
	var se *json.SyntaxError
	switch {
	case errors.As(err, &te) && te.Field == "":
		return fmt.Errorf("not a JSON object (got %s)", te.Value)
	case errors.As(err, &te):
		return fmt.Errorf("field %q is not a %s (got %s)", te.Field, te.Type, te.Value)
	case errors.As(err, &se):
		return fmt.Errorf("not a JSON object: %v", err)
	}
	return errors.New(strings.TrimPrefix(err.Error(), "json: "))
}

// members returns a JSON object's top-level keys in document order
// and their raw values.
func members(data []byte) ([]string, map[string]json.RawMessage) {
	var keys []string
	vals := make(map[string]json.RawMessage)
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		return nil, vals
	}
	for dec.More() {
		k, err := dec.Token()
		var raw json.RawMessage
		if err != nil || dec.Decode(&raw) != nil {
			break
		}
		key, _ := k.(string)
		keys, vals[key] = append(keys, key), raw
	}
	return keys, vals
}

// ProgressReporter is the human-consumption Probe: one line per run
// start, periodic progress heartbeats, and a summary line per run
// finish, for watching long evaluation runs. Per-scavenge events are
// deliberately silent — a paper-scale run has hundreds.
//
// Like TelemetryWriter it is safe for concurrent runs; lines from
// parallel workloads interleave but stay whole.
type ProgressReporter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgressReporter returns a human progress/summary sink writing to
// w (typically os.Stderr).
func NewProgressReporter(w io.Writer) *ProgressReporter {
	return &ProgressReporter{w: w}
}

func (p *ProgressReporter) printf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, format, args...)
}

func label(l, collector string) string {
	if l != "" {
		return l
	}
	return collector
}

// RunStart implements Probe.
func (p *ProgressReporter) RunStart(e RunStart) {
	p.printf("start %s (trigger %.0f KB)\n", label(e.Label, e.Collector), float64(e.TriggerBytes)/1024)
}

// Decision implements Probe.
func (p *ProgressReporter) Decision(Decision) {}

// Scavenge implements Probe.
func (p *ProgressReporter) Scavenge(ScavengeEvent) {}

// Progress implements Probe.
func (p *ProgressReporter) Progress(e Progress) {
	p.printf("  %s: %.1f MB allocated, %d collections, %.0f KB in use\n",
		label(e.Label, ""), float64(e.Clock.Bytes())/(1024*1024), e.Collections,
		float64(e.InUse)/1024)
}

// RunFinish implements Probe.
func (p *ProgressReporter) RunFinish(e RunFinish) {
	r := e.Result
	p.printf("done  %s: %d collections, mem mean/max %.0f/%.0f KB, pause p50/p90 %.0f/%.0f ms, traced %.0f KB\n",
		label(e.Label, r.Collector), r.Collections,
		r.MemMeanBytes/1024, r.MemMaxBytes/1024,
		r.MedianPauseSeconds()*1000, r.P90PauseSeconds()*1000,
		float64(r.TracedTotalBytes)/1024)
}

var _ Probe = (*TelemetryWriter)(nil)
var _ Probe = (*ProgressReporter)(nil)
