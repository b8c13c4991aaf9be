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
		var r io.Reader
		name := arg
		if arg == "-" {
			r, name = os.Stdin, "<stdin>"
		} else {
			f, err := os.Open(arg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dtbtelemetrycheck:", err)
				os.Exit(2)
			}
			defer f.Close()
			r = f
		}
		problems, err := check(r)
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
