package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// emitted runs a real simulation through the real TelemetryWriter, so
// the checker is tested against the stream the simulator actually
// produces — the drift this command exists to catch.
func emitted(t *testing.T) []byte {
	t.Helper()
	b := trace.NewBuilder()
	var ids []trace.ObjectID
	for i := 0; i < 600; i++ {
		b.Advance(50)
		ids = append(ids, b.Alloc(1024))
		if len(ids) > 6 {
			b.Free(ids[0])
			ids = ids[1:]
		}
	}
	var buf bytes.Buffer
	_, err := sim.Run(b.Events(), sim.Config{
		Policy:       core.DtbFM{TraceMax: 8 * 1024},
		TriggerBytes: 64 * 1024,
		Probe:        sim.NewTelemetryWriter(&buf),
		Label:        "test/DtbFM",
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckerAcceptsRealStream(t *testing.T) {
	stream := emitted(t)
	problems, err := checkStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("real telemetry stream rejected:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckerRejectsViolations(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of some reported problem
	}{
		{"garbage", "not json\n", "not a JSON object"},
		{"unknown event", `{"event":"nope","label":""}` + "\n", "unknown event type"},
		{"missing field", `{"event":"run_start","label":"x"}` + "\n", "missing field"},
		{"mistyped field", `{"event":"run_start","label":"x","collector":3,"mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}` + "\n", `"collector" is not a string`},
		{"empty stream", "", "stream is empty"},
		{"scavenge without decision",
			`{"event":"run_start","label":"x","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}` + "\n" +
				`{"event":"scavenge","label":"x","n":1,"trigger":"bytes","t":10,"tb":0,"mem_before":10,"traced":5,"reclaimed":5,"surviving":5,"live":5,"tenured_garbage":0,"pause_seconds":0.1}` + "\n",
			"without a preceding decision"},
		{"missing run_finish",
			`{"event":"run_start","label":"x","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}` + "\n",
			"no RunFinish"},
		{"tenured garbage mismatch",
			`{"event":"run_start","label":"x","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}` + "\n" +
				`{"event":"decision","label":"x","n":1,"trigger":"bytes","now":10,"tb":0,"candidates":[0],"mem_before":10,"live_before":5}` + "\n" +
				`{"event":"scavenge","label":"x","n":1,"trigger":"bytes","t":10,"tb":0,"mem_before":10,"traced":5,"reclaimed":5,"surviving":5,"live":5,"tenured_garbage":3,"pause_seconds":0.1}` + "\n" +
				`{"event":"run_finish","label":"x","collector":"Full","collections":1,"total_alloc":10,"exec_seconds":1,"mem_mean_bytes":1,"mem_max_bytes":1,"live_mean_bytes":1,"live_max_bytes":1,"traced_total_bytes":5,"overhead_pct":1,"pause_p50_seconds":0.1,"pause_p90_seconds":0.1}` + "\n",
			"tenured-garbage"},
		{"collection count mismatch",
			`{"event":"run_start","label":"x","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}` + "\n" +
				`{"event":"run_finish","label":"x","collector":"Full","collections":2,"total_alloc":10,"exec_seconds":1,"mem_mean_bytes":1,"mem_max_bytes":1,"live_mean_bytes":1,"live_max_bytes":1,"traced_total_bytes":5,"overhead_pct":1,"pause_p50_seconds":0.1,"pause_p90_seconds":0.1}` + "\n",
			"Collections=2 but 0 scavenge"},
	}
	for _, tc := range cases {
		problems, err := checkStream(strings.NewReader(tc.input))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %q do not mention %q", tc.name, problems, tc.want)
		}
	}
}

// adaptiveDecisionPrefix is a valid run_start plus a decision with all
// required fields, ready for adaptive-annotation suffixes.
const adaptiveDecisionPrefix = `{"event":"run_start","label":"x","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}` + "\n" +
	`{"event":"decision","label":"x","n":1,"trigger":"bytes","now":10,"tb":0,"candidates":[0],"mem_before":10,"live_before":5`

func TestCheckerAcceptsRealAdaptiveStream(t *testing.T) {
	b := trace.NewBuilder()
	var ids []trace.ObjectID
	for i := 0; i < 600; i++ {
		b.Advance(50)
		ids = append(ids, b.Alloc(1024))
		if len(ids) > 6 {
			b.Free(ids[0])
			ids = ids[1:]
		}
	}
	var buf bytes.Buffer
	_, err := sim.Run(b.Events(), sim.Config{
		Policy:       core.Bandit{Eps: 0.2},
		TriggerBytes: 64 * 1024,
		Probe:        sim.NewTelemetryWriter(&buf),
		Label:        "test/Bandit",
		PolicySeed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"arm":`)) || !bytes.Contains(buf.Bytes(), []byte(`"features_digest":"`)) {
		t.Fatal("adaptive stream carries no arm/features_digest annotations; the checker would be testing nothing")
	}
	problems, err := checkStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("real adaptive telemetry stream rejected:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckerRejectsAdaptiveViolations(t *testing.T) {
	cases := []struct {
		name   string
		suffix string // appended inside the decision object
		want   string
	}{
		{"mistyped arm", `,"arm":"3","features_digest":"00000000deadbeef"}`, `field "arm" is not a uint (got string)`},
		{"mistyped digest", `,"arm":3,"features_digest":7}`, `field "features_digest" is not a string`},
		{"arm without digest", `,"arm":3}`, `missing field "features_digest"`},
		{"fractional arm", `,"arm":1.5,"features_digest":"00000000deadbeef"}`, `field "arm" is not a uint (got number 1.5)`},
		{"negative arm", `,"arm":-1,"features_digest":"00000000deadbeef"}`, `field "arm" is not a uint (got number -1)`},
		{"short digest", `,"arm":3,"features_digest":"deadbeef"}`, `field "features_digest" is "deadbeef", want "00000000deadbeef"`},
		{"uppercase digest", `,"arm":3,"features_digest":"00000000DEADBEEF"}`, `field "features_digest" is "00000000DEADBEEF", want "00000000deadbeef"`},
	}
	for _, tc := range cases {
		input := adaptiveDecisionPrefix + tc.suffix + "\n"
		problems, err := checkStream(strings.NewReader(input))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %q do not mention %q", tc.name, problems, tc.want)
		}
	}
	// And a well-formed adaptive decision adds no problems beyond the
	// (expected) unmatched-decision and missing-finish tails.
	input := adaptiveDecisionPrefix + `,"arm":3,"features_digest":"00000000deadbeef"}` + "\n"
	problems, err := checkStream(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		if strings.Contains(p, "arm") || strings.Contains(p, "digest") {
			t.Errorf("well-formed adaptive decision flagged: %q", p)
		}
	}
}

func TestCheckerDemuxesInterleavedRuns(t *testing.T) {
	// Two concurrent runs interleaved line-by-line must both validate.
	a := `{"event":"run_start","label":"a","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}`
	b := `{"event":"run_start","label":"b","collector":"Full","mips":40,"trace_bytes_per_sec":2000000,"trigger_bytes":1,"progress_bytes":1,"opportunistic":false}`
	af := `{"event":"run_finish","label":"a","collector":"Full","collections":0,"total_alloc":10,"exec_seconds":1,"mem_mean_bytes":1,"mem_max_bytes":1,"live_mean_bytes":1,"live_max_bytes":1,"traced_total_bytes":0,"overhead_pct":0,"pause_p50_seconds":0,"pause_p90_seconds":0}`
	bf := `{"event":"run_finish","label":"b","collector":"Full","collections":0,"total_alloc":10,"exec_seconds":1,"mem_mean_bytes":1,"mem_max_bytes":1,"live_mean_bytes":1,"live_max_bytes":1,"traced_total_bytes":0,"overhead_pct":0,"pause_p50_seconds":0,"pause_p90_seconds":0}`
	input := strings.Join([]string{a, b, af, bf}, "\n") + "\n"
	problems, err := checkStream(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("interleaved runs rejected: %q", problems)
	}
}

// mustCheck runs the checker over a stream that must be clean.
func mustCheck(t *testing.T, stream []byte) {
	t.Helper()
	problems, err := checkStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("real telemetry stream rejected:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckerAcceptsDropsStream(t *testing.T) {
	var buf bytes.Buffer
	tw := sim.NewTelemetryWriter(&buf)
	if _, err := sim.Run(nil, sim.Config{Policy: core.Full{}, Probe: tw}); err != nil {
		t.Fatal(err)
	}
	tw.Drops("", trace.DropStats{CorruptRecords: 2, TornTail: 1, BytesDropped: 40})
	if !bytes.Contains(buf.Bytes(), []byte(`"event":"drops"`)) {
		t.Fatal("stream carries no drops line")
	}
	mustCheck(t, buf.Bytes())
}

// TestCheckerAcceptsEvaluationStream checks the interleaved telemetry
// of a whole paper evaluation: many concurrent labels, and the NoGC and
// Live baselines beside the policies.
func TestCheckerAcceptsEvaluationStream(t *testing.T) {
	var buf bytes.Buffer
	if _, err := dtbgc.RunPaperEvaluation(dtbgc.EvalOptions{
		Scale: 0.02, TriggerBytes: 64 * 1024, Workers: 2,
		Probe: dtbgc.NewTelemetryWriter(&buf),
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"collector":"NoGC"`, `"collector":"Live"`, `"event":"scavenge"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("evaluation stream lacks %s", want)
		}
	}
	mustCheck(t, buf.Bytes())
}

// setField rewrites one numeric field of a telemetry line in place,
// keeping the writer's field order and number spelling, so the edited
// line still decodes cleanly and only the audit can object.
func setField(t *testing.T, line, field string, edit func(float64) float64) string {
	t.Helper()
	m := regexp.MustCompile(`"` + field + `":([^,}]*)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no field %q in %s", field, line)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := json.Marshal(edit(v))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Replace(line, m[0], `"`+field+`":`+string(nv), 1)
}

// TestCheckerRejectsTamperedStream edits a real dtbsim stream the way
// a schema-only check cannot see: accounting, pause and summary values
// that are well-typed but break the paper's identities.
func TestCheckerRejectsTamperedStream(t *testing.T) {
	w, err := dtbgc.LookupWorkload("GHOST(1)")
	if err != nil {
		t.Fatal(err)
	}
	events, err := w.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dtbgc.ParsePolicy("dtbfm:50k")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dtbgc.Simulate(events, dtbgc.SimOptions{Policy: p, Probe: dtbgc.NewTelemetryWriter(&buf)}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, buf.Bytes())

	lines := strings.SplitAfter(buf.String(), "\n")
	plus := func(d float64) func(float64) float64 { return func(v float64) float64 { return v + d } }
	scavenged, finished := false, false
	for i, l := range lines {
		switch {
		case !scavenged && strings.HasPrefix(l, `{"event":"scavenge"`):
			l = setField(t, l, "surviving", plus(4096))
			l = setField(t, l, "tenured_garbage", plus(4096))
			l = setField(t, l, "pause_seconds", func(v float64) float64 { return v * 1.25 })
			scavenged = true
		case strings.HasPrefix(l, `{"event":"run_finish"`):
			l = setField(t, l, "traced_total_bytes", plus(1))
			l = setField(t, l, "overhead_pct", func(float64) float64 { return -3 })
			l = setField(t, l, "pause_p50_seconds", func(float64) float64 { return 99 })
			finished = true
		}
		lines[i] = l
	}
	if !scavenged || !finished {
		t.Fatal("stream has no scavenge or no run_finish to tamper with")
	}
	problems, err := checkStream(strings.NewReader(strings.Join(lines, "")))
	if err != nil {
		t.Fatal(err)
	}
	report := strings.Join(problems, "\n")
	for _, want := range []string{"mem-accounting", "pause-rate", "finish-history", "finish-stats", `field "pause_p50_seconds" is 99`} {
		if !strings.Contains(report, want) {
			t.Errorf("tampered stream: problems do not mention %q:\n%s", want, report)
		}
	}
}
