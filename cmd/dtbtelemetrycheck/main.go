// Command dtbtelemetrycheck validates a JSON-lines telemetry stream
// (as written by dtbsim -telemetry or dtbgc.NewTelemetryWriter). A
// stream passes when every line is exactly what sim.TelemetryWriter
// writes for the event it decodes to (sim.TelemetryReader names the
// missing, extra, mistyped or differing field otherwise) and every
// decoded event holds to every audit.Auditor rule: run and decision
// sequencing, the paper's per-scavenge identities, and a run_finish
// whose Result, pause percentiles included, matches the run's
// scavenge lines. A run that never finishes fails too. The writer and
// the Auditor are the only definitions of the schema and the rules;
// this command keeps no copy of either.
//
// Usage:
//
//	dtbtelemetrycheck FILE...
//	dtbsim -policy full -workload SIS -telemetry - | dtbtelemetrycheck -
//	curl -s http://127.0.0.1:7341/v1/metrics | dtbtelemetrycheck -metrics -
//
// -metrics checks a dtbd metrics snapshot instead: the document must
// be exactly the daemon's encoding of a daemon.MetricsSnapshot, with
// finite non-negative readings and the serving identities intact
// (memo_hits + cold_evals == evals_served, tape_hits within
// cold_evals). It is the CI gate on the daemon's /v1/metrics endpoint.
//
// Exit status is 0 when every stream passes, 1 when one does not, and
// 2 on usage or I/O errors.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/dtbgc/dtbgc/internal/cliio"
)

func main() {
	args := os.Args[1:]
	check := checkStream
	if len(args) > 0 && args[0] == "-metrics" {
		check = checkMetrics
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dtbtelemetrycheck [-metrics] FILE... (- for stdin)")
		os.Exit(2)
	}
	failed := false
	for _, arg := range args {
		name := arg
		if arg == "-" {
			name = "<stdin>"
		}
		problems, err := checkPath(arg, check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtbtelemetrycheck: %s: %v\n", name, err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Printf("%s: %s\n", name, p)
		}
		if len(problems) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkPath runs check over the named file, or over stdin for "-".
func checkPath(arg string, check func(io.Reader) ([]string, error)) (problems []string, err error) {
	if arg == "-" {
		return check(os.Stdin)
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer cliio.CloseChecked(arg, f, &err)
	return check(f)
}
