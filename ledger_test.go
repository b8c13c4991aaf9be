package dtbgc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// The result ledger pins absolute results across versions. Every other
// oracle in the repository is relative (fleet vs solo, compacted vs
// uncompacted, dtbsim vs dtbd) and shares the generator and policy
// code, so a change that shifts every path alike passes all of them.
// The ledger holds, per paper profile at a small scale, the digest of
// the generated trace and one SHA-256 per collector over every Result
// field: a trace-digest diff means the generator changed, a result
// diff means the simulator or a policy did.
//
// Re-bless only on purpose, and name every moved line in CHANGES.md:
//
//	go test -run TestResultLedger -update .
var updateLedger = flag.Bool("update", false, "rewrite testdata/result_ledger.txt from the current code")

const (
	ledgerPath       = "testdata/result_ledger.txt"
	ledgerScale      = 0.02
	ledgerTrigger    = 20 * 1024
	ledgerMemMax     = 60 * 1024
	ledgerTraceMax   = 4 * 1024
	ledgerCurve      = 256
	ledgerPolicySeed = 1
	// ledgerArch is the architecture the ledger was blessed on. The
	// Go compiler may fuse x*y+z into one FMA instruction on other
	// architectures, which changes float results in their last bits.
	ledgerArch = "amd64"
)

// ledgerAdaptive are the seeded adaptive policies the ledger pins
// beside the paper matrix, so policy seeding is covered too.
func ledgerAdaptive() []Policy {
	return []Policy{GradientPolicy(), UCBPolicy(1.5), EpsGreedyPolicy(0.1)}
}

// ledgerLines computes one ledger line per paper profile, in profile
// order: "name trace=<digest> events=<n> <collector>=<digest> ...",
// collectors sorted by name.
func ledgerLines(t *testing.T) []string {
	t.Helper()
	ev, err := RunPaperEvaluation(EvalOptions{
		Scale:         ledgerScale,
		TriggerBytes:  ledgerTrigger,
		MemMaxBytes:   ledgerMemMax,
		TraceMaxBytes: ledgerTraceMax,
		RecordCurves:  true,
		CurvePoints:   ledgerCurve,
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(ev.Runs))
	for _, run := range ev.Runs {
		w := run.Workload
		events, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		td, err := trace.DigestEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		var sims []SimOptions
		for _, p := range ledgerAdaptive() {
			sims = append(sims, SimOptions{
				Policy: p, PolicySeed: ledgerPolicySeed, TriggerBytes: ledgerTrigger,
				RecordCurve: true, CurvePoints: ledgerCurve, Label: w.Name + "/" + p.Name(),
			})
		}
		adaptive, err := ReplayAll(context.Background(), SliceSource(events), sims)
		if err != nil {
			t.Fatal(err)
		}
		results := make(map[string]*Result, len(run.Results)+len(adaptive))
		for name, res := range run.Results {
			results[name] = res
		}
		for _, res := range adaptive {
			results[res.Collector] = res
		}
		names := make([]string, 0, len(results))
		for name := range results {
			names = append(names, name)
		}
		sort.Strings(names)
		fields := []string{w.Name, "trace=" + td.String(), fmt.Sprintf("events=%d", len(events))}
		for _, name := range names {
			fields = append(fields, name+"="+resultDigest(results[name]))
		}
		lines = append(lines, strings.Join(fields, " "))
	}
	return lines
}

// resultDigest is SHA-256 over a canonical encoding of every Result
// field: integers as little-endian uint64, floats as their
// math.Float64bits, slices and strings length-prefixed, optional
// curves behind a presence word.
func resultDigest(r *Result) string {
	var c canon
	c.str(r.Collector)
	c.f(r.MemMeanBytes)
	c.f(r.MemMaxBytes)
	c.f(r.LiveMeanBytes)
	c.f(r.LiveMaxBytes)
	c.u(uint64(len(r.Pauses)))
	for _, p := range r.Pauses {
		c.f(p)
	}
	c.u(r.TracedTotalBytes)
	c.f(r.OverheadPct)
	c.u(uint64(r.Collections))
	c.u(r.TotalAlloc)
	c.f(r.ExecSeconds)
	c.series(r.Curve)
	c.series(r.LiveCurve)
	c.u(r.PageFaults)
	c.u(r.PageAccesses)
	c.u(uint64(len(r.History.Scavenges)))
	for _, sc := range r.History.Scavenges {
		c.u(uint64(sc.N))
		c.u(sc.T.Bytes())
		c.u(sc.TB.Bytes())
		c.u(sc.MemBefore)
		c.u(sc.Traced)
		c.u(sc.Reclaimed)
		c.u(sc.Surviving)
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:])
}

// canon accumulates resultDigest's canonical encoding.
type canon []byte

func (c *canon) u(v uint64)   { *c = binary.LittleEndian.AppendUint64(*c, v) }
func (c *canon) f(v float64)  { c.u(math.Float64bits(v)) }
func (c *canon) str(v string) { c.u(uint64(len(v))); *c = append(*c, v...) }
func (c *canon) series(s *stats.Series) {
	if s == nil {
		c.u(0)
		return
	}
	c.u(1)
	c.str(s.Name)
	c.u(uint64(len(s.Points)))
	for _, p := range s.Points {
		c.f(p.T)
		c.f(p.V)
	}
}

// TestResultDigestCoversEveryField fails when Result, core.Scavenge or
// stats.Series gains a field, so resultDigest cannot silently stop
// covering every field.
func TestResultDigestCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields int
	}{
		{reflect.TypeOf(Result{}), 16},
		{reflect.TypeOf(core.Scavenge{}), 7},
		{reflect.TypeOf(stats.Series{}), 2},
		{reflect.TypeOf(stats.Point{}), 2},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Errorf("%v has %d fields, resultDigest encodes %d: extend the encoding and re-bless the ledger", c.typ, n, c.fields)
		}
	}
}

// TestResultLedger compares the paper profiles' trace digests and
// per-collector result digests against the committed ledger.
func TestResultLedger(t *testing.T) {
	if runtime.GOARCH != ledgerArch && !*updateLedger {
		t.Skipf("ledger blessed on %s; float results may differ in the last bit on %s", ledgerArch, runtime.GOARCH)
	}
	got := ledgerLines(t)
	if *updateLedger {
		var b strings.Builder
		fmt.Fprintf(&b, "# Result ledger: paper profiles at scale %g, trigger %d, mem max %d, trace max %d, curves of %d points, policy seed %d, %s.\n",
			ledgerScale, ledgerTrigger, ledgerMemMax, ledgerTraceMax, ledgerCurve, ledgerPolicySeed, ledgerArch)
		b.WriteString("# Regenerate with: go test -run TestResultLedger -update .\n")
		for _, line := range got {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(ledgerPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ledger has %d profile lines, the evaluation produced %d", len(want), len(got))
	}
	for i, line := range got {
		for _, d := range diffLedgerLine(line, want[i]) {
			t.Error(d)
		}
	}
	if t.Failed() {
		t.Log("a trace= diff means the generator changed; a collector diff means the simulator or a policy did; re-bless only on purpose with -update")
	}
}

func readLedger(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// diffLedgerLine names every key whose value differs between two
// ledger lines, keyed by the text before each field's last '=' (policy
// names contain '=' themselves).
func diffLedgerLine(got, want string) []string {
	gf, wf := strings.Fields(got), strings.Fields(want)
	if gf[0] != wf[0] {
		return []string{fmt.Sprintf("profile %q, ledger has %q", gf[0], wf[0])}
	}
	kv := func(fields []string) map[string]string {
		m := make(map[string]string, len(fields))
		for _, f := range fields[1:] {
			i := strings.LastIndexByte(f, '=')
			m[f[:i]] = f[i+1:]
		}
		return m
	}
	gm, wm := kv(gf), kv(wf)
	keys := make([]string, 0, len(gm)+len(wm))
	for k := range gm {
		keys = append(keys, k)
	}
	for k := range wm {
		if _, ok := gm[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if gm[k] != wm[k] {
			out = append(out, fmt.Sprintf("%s %s: got %q, ledger %q", gf[0], k, gm[k], wm[k]))
		}
	}
	return out
}
