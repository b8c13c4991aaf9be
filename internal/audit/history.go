package audit

import (
	"fmt"

	"github.com/dtbgc/dtbgc/internal/core"
)

// The per-scavenge identities, each written once. Both the live
// Auditor and the post-hoc history checks call them: the Auditor on the
// entry a Decision or ScavengeEvent describes, CheckHistory and
// CheckBoundaryDiscipline on each entry of a finished History. prev is
// the previous scavenge, nil for scavenge 1, whose predecessor is
// program start (t_0 = 0).

// reportFunc records one breach of the named rule at scavenge n.
type reportFunc func(n int, rule, format string, args ...any)

// checkInputs holds the quantities fixed when the policy decides — t_n,
// TB_n and Mem_n — to their identities: boundary-future (TB_n <= t_n),
// time-monotone (t_n > t_{n-1}) and mem-monotone (Mem_n >= S_{n-1}:
// memory only shrinks by scavenging).
func checkInputs(s core.Scavenge, prev *core.Scavenge, report reportFunc) {
	if s.TB > s.T {
		report(s.N, "boundary-future", "TB_n=%v is beyond t_n=%v", s.TB, s.T)
	}
	if prev == nil {
		return
	}
	if s.T <= prev.T {
		report(s.N, "time-monotone", "t_n=%v does not advance past t_{n-1}=%v", s.T, prev.T)
	}
	if s.MemBefore < prev.Surviving {
		report(s.N, "mem-monotone",
			"Mem_n=%d below the previous survivors S_{n-1}=%d: memory shrank without a scavenge",
			s.MemBefore, prev.Surviving)
	}
}

// checkAbovePrev is §4.1's boundary-above-prev: TB_n <= t_{n-1}, so
// every object is traced at least once. All the Table-1 policies
// guarantee it by construction; an experimental policy may relax it.
func checkAbovePrev(s core.Scavenge, prev *core.Scavenge, report reportFunc) {
	var prevT core.Time // t_0 = program start
	if prev != nil {
		prevT = prev.T
	}
	if s.TB > prevT {
		report(s.N, "boundary-above-prev",
			"TB_n=%v is beyond the previous scavenge time t_{n-1}=%v", s.TB, prevT)
	}
}

// checkOutcome holds what the scavenge measured to its identities:
// mem-accounting (Mem_n = S_n + reclaimed_n; the untenured remainder
// stays inside S_n) and trace-accounting (traced + reclaimed <= Mem_n).
func checkOutcome(s core.Scavenge, report reportFunc) {
	if s.MemBefore != s.Surviving+s.Reclaimed {
		report(s.N, "mem-accounting",
			"Mem_n=%d but Surviving+Reclaimed=%d+%d=%d: %d byte(s) unaccounted",
			s.MemBefore, s.Surviving, s.Reclaimed, s.Surviving+s.Reclaimed,
			int64(s.MemBefore)-int64(s.Surviving+s.Reclaimed))
	}
	if s.Traced+s.Reclaimed > s.MemBefore {
		report(s.N, "trace-accounting",
			"traced %d + reclaimed %d exceed the %d bytes that were in use", s.Traced, s.Reclaimed, s.MemBefore)
	}
}

// previous returns the entry before index i of h, nil for the first.
func previous(h *core.History, i int) *core.Scavenge {
	if i == 0 {
		return nil
	}
	return &h.Scavenges[i-1]
}

// collect returns a reportFunc appending labelled violations to out.
func collect(label string, out *[]Violation) reportFunc {
	return func(n int, rule, format string, args ...any) {
		*out = append(*out, Violation{Label: label, N: n, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
}

// CheckHistory verifies the paper's identities on a completed scavenge
// history, whoever produced it — the trace-driven simulator or the
// real reachability collector (internal/gc). It reads the history and
// never retains or mutates it. The label tags the violations (use the
// run or collector name); pass "" when there is only one history in
// play.
//
// Checks, each with the same Rule names the live Auditor uses:
// decision-sequence (indices are 1,2,3,... in order), boundary-future,
// time-monotone, mem-monotone, mem-accounting and trace-accounting.
// The stricter TB_n <= t_{n-1} discipline is policy-dependent;
// CheckBoundaryDiscipline checks it separately.
func CheckHistory(label string, h *core.History) []Violation {
	var out []Violation
	report := collect(label, &out)
	for i, s := range h.Scavenges {
		if s.N != i+1 {
			report(s.N, "decision-sequence", "entry %d carries index n=%d", i, s.N)
		}
		checkInputs(s, previous(h, i), report)
		checkOutcome(s, report)
	}
	return out
}

// CheckBoundaryDiscipline verifies TB_n <= t_{n-1} over a history: the
// paper's §4.1 requirement that every object is traced at least once,
// which all the Table-1 policies guarantee by construction but an
// experimental policy may legitimately relax. It reads the history and
// never retains or mutates it.
func CheckBoundaryDiscipline(label string, h *core.History) []Violation {
	var out []Violation
	report := collect(label, &out)
	for i, s := range h.Scavenges {
		checkAbovePrev(s, previous(h, i), report)
	}
	return out
}
