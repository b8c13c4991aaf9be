package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/dtbgc/dtbgc/internal/daemon"
	"github.com/dtbgc/dtbgc/internal/sim"
)

// checkMetrics validates one dtbd metrics snapshot document: exactly
// the encoding the daemon writes for a daemon.MetricsSnapshot (every
// field present at its type, nothing else), finite and non-negative
// readings, and the serving identities (memo_hits + cold_evals ==
// evals_served, tape_hits ⊆ cold_evals). The error return is for I/O
// problems only.
func checkMetrics(r io.Reader) ([]string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The daemon ends the document with a newline; the snapshot is the
	// JSON object before it.
	data = bytes.TrimSuffix(data, []byte("\n"))
	// A document that decodes but is not in the daemon's encoding is
	// reported and still checked for its values.
	var problems []string
	var snap daemon.MetricsSnapshot
	decoded := false
	if err := sim.DecodeExact(data, &snap, func() ([]byte, error) {
		decoded = true
		return json.Marshal(&snap)
	}); err != nil {
		problems = append(problems, err.Error())
	}
	if !decoded {
		return problems, nil
	}
	for _, g := range []struct {
		name string
		v    int64
	}{
		{"in_flight", snap.InFlight}, {"queued", snap.Queued},
		{"workers", int64(snap.Workers)}, {"queue_depth", int64(snap.QueueDepth)},
		{"tape_cache_traces", int64(snap.TapeCacheTraces)},
		{"tape_cache_bytes", snap.TapeCacheBytes},
		{"memo_entries", int64(snap.MemoEntries)},
	} {
		if g.v < 0 {
			problems = append(problems, fmt.Sprintf("%s = %d: negative gauge", g.name, g.v))
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"service_p50_ms", snap.ServiceP50Ms},
		{"service_p99_ms", snap.ServiceP99Ms},
		{"uptime_seconds", snap.UptimeSeconds},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			problems = append(problems, fmt.Sprintf("%s = %v: must be finite and non-negative", f.name, f.v))
		}
	}
	if snap.MemoHits+snap.ColdEvals != snap.EvalsServed {
		problems = append(problems, fmt.Sprintf(
			"serving identity broken: memo_hits %d + cold_evals %d != evals_served %d",
			snap.MemoHits, snap.ColdEvals, snap.EvalsServed))
	}
	if snap.TapeHits > snap.ColdEvals {
		problems = append(problems, fmt.Sprintf(
			"tape_hits %d exceeds cold_evals %d: a tape hit is a kind of cold eval",
			snap.TapeHits, snap.ColdEvals))
	}
	if snap.ServiceP50Ms > snap.ServiceP99Ms {
		problems = append(problems, fmt.Sprintf(
			"service_p50_ms %v exceeds service_p99_ms %v", snap.ServiceP50Ms, snap.ServiceP99Ms))
	}
	return problems, nil
}
