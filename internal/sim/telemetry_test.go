package sim

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// telemetryStreams are real TelemetryWriter output: a pure policy with
// progress lines and opportunistic Mark scavenges, an adaptive policy
// whose decisions carry arm and features_digest, and a recovered run
// with its drops line. The trace is kept short so the streams stay
// small fuzz seeds.
func telemetryStreams(t testing.TB) (names []string, streams [][]byte) {
	t.Helper()
	b := trace.NewBuilder()
	var ids []trace.ObjectID
	for i := 0; i < 100; i++ {
		b.Advance(100)
		ids = append(ids, b.Alloc(512))
		if len(ids) > 8 {
			b.Free(ids[0])
			ids = ids[1:]
		}
		if i == 60 {
			b.Mark("phase")
		}
	}
	events := b.Events()
	run := func(name string, cfg Config, drops trace.DropStats) {
		var buf bytes.Buffer
		tw := NewTelemetryWriter(&buf)
		cfg.Probe = tw
		if _, err := Run(events, cfg); err != nil {
			t.Fatal(err)
		}
		tw.Drops(cfg.Label, drops)
		if err := tw.Err(); err != nil {
			t.Fatal(err)
		}
		names, streams = append(names, name), append(streams, buf.Bytes())
	}
	run("pure", Config{
		Policy: core.DtbFM{TraceMax: 4 * 1024}, TriggerBytes: 20 * 1024,
		ProgressBytes: 32 * 1024, Opportunistic: true, Label: "w/DtbFM",
	}, trace.DropStats{})
	run("adaptive", Config{
		Policy: core.Bandit{Eps: 0.2}, TriggerBytes: 20 * 1024,
		PolicySeed: 7, Label: "w/Bandit",
	}, trace.DropStats{})
	run("drops", Config{Mode: ModeLive}, trace.DropStats{CorruptRecords: 1, TornTail: 1, BytesDropped: 17})
	return names, streams
}

// readBack decodes a stream through the reader into a fresh writer per
// line, returning the bytes each line re-encodes to (nil for a rejected
// line) and the errors of the rejected ones.
func readBack(data []byte) (reencoded [][]byte, rejected []error) {
	tr := NewTelemetryReader(bytes.NewReader(data))
	for {
		var out bytes.Buffer
		tw := NewTelemetryWriter(&out)
		err := tr.Next(tw, tw.Drops)
		var bad *TelemetryLineError
		switch {
		case err == io.EOF:
			return reencoded, rejected
		case errors.As(err, &bad):
			reencoded = append(reencoded, nil)
			rejected = append(rejected, err)
		case err != nil:
			return reencoded, append(rejected, err)
		default:
			reencoded = append(reencoded, out.Bytes())
		}
	}
}

func TestTelemetryReaderRoundTrip(t *testing.T) {
	names, streams := telemetryStreams(t)
	for i, stream := range streams {
		name := names[i]
		for _, want := range []string{map[string]string{
			"pure": `"trigger":"mark"`, "adaptive": `"features_digest":"`, "drops": `"event":"drops"`,
		}[name], `"event":"run_finish"`} {
			if !bytes.Contains(stream, []byte(want)) {
				t.Fatalf("%s stream lacks %s", name, want)
			}
		}
		got, rejected := readBack(stream)
		if len(rejected) > 0 {
			t.Fatalf("%s: writer output rejected: %v", name, rejected)
		}
		if joined := bytes.Join(got, nil); !bytes.Equal(joined, stream) {
			t.Fatalf("%s: re-encoded stream differs:\n%s\nvs\n%s", name, joined, stream)
		}
	}
}

func TestTelemetryReaderNamesTheField(t *testing.T) {
	_, streams := telemetryStreams(t)
	pure := streams[0]
	first := string(pure[:bytes.IndexByte(pure, '\n')+1])
	for _, tc := range []struct{ line, want string }{
		{strings.Replace(first, `"mips":10,`, ``, 1), `missing field "mips"`},
		{strings.Replace(first, `"mips":10`, `"mips":"10"`, 1), `field "mips" is not a float64 (got string)`},
		{strings.Replace(first, `"mips":10`, `"mips":10,"extra":1`, 1), `unknown field "extra"`},
		{strings.Replace(first, `"mips":10`, `"mips":10.0`, 1), `field "mips" is 10.0, want 10`},
		{strings.Replace(first, `,"mips"`, `, "mips"`, 1), `not the canonical encoding`},
		{strings.TrimSuffix(first, "\n"), `not the canonical encoding`},
		{`{"event":"scavenge","trigger":"sometimes"}` + "\n", `unknown trigger "sometimes"`},
		{`{"event":"drops","label":"","corrupt_records":0,"torn_tail_records":0,"bytes_dropped":0}` + "\n", `nothing dropped`},
		{`[1]` + "\n", `not a JSON object`},
		{`{"label":"x"}` + "\n", `missing field "event"`},
	} {
		_, rejected := readBack([]byte(tc.line))
		if len(rejected) != 1 || !strings.Contains(rejected[0].Error(), tc.want) {
			t.Errorf("%q: got %v, want one error mentioning %q", tc.line, rejected, tc.want)
		}
	}
}

// FuzzTelemetry feeds arbitrary bytes to the reader: it must never
// panic, and every line it accepts must be exactly what the writer
// emits for the event it decoded. The seeds are the lines of the real
// streams one by one, which keeps the fuzzer's minimization of each
// new input short, plus the whole drops stream.
func FuzzTelemetry(f *testing.F) {
	_, streams := telemetryStreams(f)
	for _, stream := range streams {
		for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
			if len(line) > 0 {
				f.Add(line)
			}
		}
	}
	f.Add(streams[len(streams)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.SplitAfter(data, []byte("\n"))
		got, _ := readBack(data)
		for i, b := range got {
			if b != nil && !bytes.Equal(b, lines[i]) {
				t.Fatalf("line %d accepted but re-encodes differently:\n%q\nvs\n%q", i+1, lines[i], b)
			}
		}
	})
}
