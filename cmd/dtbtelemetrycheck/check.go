package main

import (
	"errors"
	"io"

	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/sim"
)

// checkStream validates one telemetry stream and returns what it
// found: first every line that is not exactly what sim.TelemetryWriter
// writes, in line order, then every audit.Auditor violation of the
// decoded events. The error return is for I/O problems only.
func checkStream(r io.Reader) ([]string, error) {
	var problems []string
	aud := audit.NewAuditor()
	tr := sim.NewTelemetryReader(r)
	for {
		err := tr.Next(aud, aud.NoteDrops)
		var bad *sim.TelemetryLineError
		switch {
		case err == io.EOF:
			if tr.Lines() == 0 {
				problems = append(problems, "stream is empty: expected at least run_start and run_finish")
			}
			aud.EndOfStream()
			for _, v := range aud.Violations() {
				problems = append(problems, v.String())
			}
			return problems, nil
		case errors.As(err, &bad):
			problems = append(problems, bad.Error())
		case err != nil:
			return nil, err
		}
	}
}
