// Command perfbench is the repository's benchmark. It drives the
// simulator through its public entry points on three workloads and
// prints every metric by name with its unit, then one JSON result
// line:
//
//	bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that records spans around each layer's calls and reports
// the per-layer metrics. --workload all runs every workload in turn.
// Every simulated result is checked bit for bit against the solo
// per-event path; any mismatch makes the run exit 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run. BENCHMARK.json lists the same names with their
// bounds. Times are scaled to a reference host speed (see calib.go);
// the run prints the host times beside them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_bytes", "bytes"},
	{"ok_frac", "frac"},
	{"collector_events_per_ref_s", "1/ref_s"},
	{"cold_p50_ref_ms", "ref_ms"},
	{"slo_frac", "frac"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0, and the run says so in a note.
var perLayer = []metricDef{
	{"workload.generate_ns_per_event", "ns"},
	{"workload.allocs_per_event", "count"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.digest_ns_per_byte", "ns"},
	{"sim.resolve_ns_per_event", "ns"},
	{"sim.apply_ns_per_runner_event", "ns"},
	{"sim.collect_ms", "ms"},
	{"sim.scavenges", "count"},
	{"sim.traced_bytes", "bytes"},
	{"engine.batches", "count"},
	{"engine.job_ms_max", "ms"},
	{"engine.worker_idle_frac", "frac"},
	{"ledger.generate_share", "frac"},
	{"ledger.resolve_share", "frac"},
	{"ledger.apply_share", "frac"},
	{"ledger.scavenge_share", "frac"},
	{"daemon.memo_p50_ms", "ms"},
	{"daemon.memo_p99_ms", "ms"},
	{"daemon.upload_p50_ms", "ms"},
	{"daemon.service_ms_p50.memo", "ms"},
	{"daemon.service_ms_p50.tape", "ms"},
	{"daemon.service_ms_p50.cold", "ms"},
	{"daemon.transport_ms_p50", "ms"},
	{"daemon.response_bytes_p50", "bytes"},
	{"daemon.tape_hit_ratio", "frac"},
	{"daemon.memo_hit_ratio", "frac"},
	{"daemon.unknown_trace_retries", "count"},
	{"daemon.rejected", "count"},
	{"bench.late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64  // generates the inputs
	refSeed uint64  // generates the references; differs only to show the gate failing
	seconds float64 // length of the timed phase
	traced  bool
	out     io.Writer // human-readable lines
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64

	mu         sync.Mutex
	mismatches []string // wrong answers: the run fails
	errs       []string // failed operations: counted in failed
}

func newReport() *report { return &report{values: map[string]float64{}} }

// mismatch records a failed correctness check. Any mismatch makes the
// run exit 1. It is safe for concurrent use.
func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// operationError records an operation that failed or was refused. It
// is safe for concurrent use.
func (r *report) operationError(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// workloads are the benchmark's workloads, in the order --workload all
// runs them.
type workload struct {
	name string
	run  func(context.Context, runConfig) (*report, error)
}

var workloads = []workload{
	{"paper-matrix", runPaperMatrix},
	{"fanout64-decode", runFanout64},
	{"dtbd-mixed", runDtbdMixed},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-matrix, fanout64-decode, dtbd-mixed or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	refSeed := fs.Uint64("ref-seed", 0, "seed for the reference results (default: --seed); a different value must make the run fail")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{seed: *seed, refSeed: *refSeed, seconds: *seconds, traced: *traceFlag == 1, out: stdout}
	if cfg.refSeed == 0 {
		cfg.refSeed = cfg.seed
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (paper-matrix, fanout64-decode, dtbd-mixed or all)\n", *name)
		return 2
	}

	fmt.Fprintf(stdout, "host goos=%s goarch=%s gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	result := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		n := w.name
		fmt.Fprintf(stdout, "run workload=%s seed=%d ref_seed=%d seconds=%g trace=%d\n", n, cfg.seed, cfg.refSeed, cfg.seconds, *traceFlag)
		rep, err := w.run(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		result.Attempted += rep.attempted
		result.Failed += rep.failed
		printFirst(stdout, "error "+n, rep.errs)
		if len(rep.mismatches) > 0 {
			result.Correct = false
			fmt.Fprintf(stdout, "GATE FAILED %s: %d mismatches\n", n, len(rep.mismatches))
			printFirst(stdout, "mismatch "+n, rep.mismatches)
		}
		var unexercised []string
		for _, d := range defs {
			v, ok := rep.values[d.name]
			if !ok {
				if !cfg.traced {
					fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s was not measured\n", n, d.name)
					return 1
				}
				unexercised = append(unexercised, d.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", n, d.name, v)
				return 1
			}
			fmt.Fprintf(stdout, "metric %s %s = %.6g %s\n", n, d.name, v, d.unit)
			key := d.name
			if len(selected) > 1 {
				key = n + "/" + d.name
			}
			result.Metrics[key] = jsonMetric{Value: v, Unit: d.unit}
		}
		if len(unexercised) > 0 {
			fmt.Fprintf(stdout, "note %s does not exercise (reported as 0): %s\n", n, strings.Join(unexercised, ", "))
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

// printFirst prints the first few lines of a list and how many more
// there are.
func printFirst(w io.Writer, prefix string, lines []string) {
	for i, l := range lines {
		if i == 5 {
			fmt.Fprintf(w, "%s: ... %d more\n", prefix, len(lines)-5)
			return
		}
		fmt.Fprintf(w, "%s: %s\n", prefix, l)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// cpuModel reads the processor model for the host record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// deriveSeed mixes the run seed with an input index (splitmix64), so
// every generated input gets its own well-spread seed.
func deriveSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// spanFile is where a traced run writes its spans: under the build
// directory run.sh creates, inside the working directory.
func spanFile(workload string, seed uint64) string {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return ""
	}
	return fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", workload, seed)
}
