package trace

import (
	"fmt"
	"sort"
)

// Window extracts the sub-trace covering the instruction interval
// [from, to] as a self-contained, well-formed trace:
//
//   - objects allocated before the window and still live at its start
//     are re-introduced with synthetic allocations at instant `from`,
//     in their original allocation order (so relative ages — the only
//     thing boundary policies consume — are preserved);
//   - events inside the window are copied unchanged;
//   - everything before the window, and everything after it, is
//     dropped.
//
// The input must validate: Window walks it with Validate's checks up
// to the window's end and returns Validate's error for the first
// malformed event it reads. On a valid trace, every free and pointer
// store inside the window names an object that is live there, so the
// copy is itself valid.
//
// Windowing lets long captures be studied piecewise: the warm-up of a
// trace can be skipped, or one program phase isolated, while the
// result still passes Validate.
func Window(events []Event, from, to uint64) ([]Event, error) {
	if to < from {
		return nil, fmt.Errorf("trace: Window with to < from")
	}
	var s Stats
	i := 0
	for ; i < len(events) && events[i].Instr < from; i++ {
		if _, err := s.stepAt(i, events[i]); err != nil {
			return nil, err
		}
	}

	// Synthetic allocations for the survivors, oldest first.
	survivors := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs { //dtbvet:ignore determinism -- survivors are sorted by allocation order below
		survivors = append(survivors, id)
	}
	sort.Slice(survivors, func(a, b int) bool { return s.objs[survivors[a]].order < s.objs[survivors[b]].order })
	out := make([]Event, 0, len(survivors)+len(events)-i)
	for _, id := range survivors {
		out = append(out, Alloc(id, s.objs[id].size, from))
	}

	// The window body, walked for validity and copied whole.
	body := i
	for ; i < len(events) && events[i].Instr <= to; i++ {
		if _, err := s.stepAt(i, events[i]); err != nil {
			return nil, err
		}
	}
	return append(out, events[body:i]...), nil
}
