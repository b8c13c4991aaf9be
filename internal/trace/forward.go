package trace

// Forward-pointer analysis for §4.2 of the paper: the dynamic
// threatening boundary collector must remember ALL forward-in-time
// pointers (stores where the source object is older than the new
// referent), not just generation-crossing ones, and the design rests
// on the assumption that "such pointers are a small fraction of all
// pointers". ForwardStats measures that fraction on a real trace.

// ForwardStats summarizes the pointer stores of a trace.
type ForwardStats struct {
	Stores   int // total pointer stores
	NilStore int // stores of the nil reference
	Forward  int // source older than referent (must be remembered)
	Backward int // source younger than referent
	SelfSame int // source and referent allocated at the same instant
}

// ForwardFraction returns Forward / non-nil stores (0 when there were
// none).
func (f ForwardStats) ForwardFraction() float64 {
	n := f.Stores - f.NilStore
	if n == 0 {
		return 0
	}
	return float64(f.Forward) / float64(n)
}

// MeasureForward computes forward-pointer statistics for a well-formed
// trace, rejecting a malformed one with Validate's error. Object age
// is position in allocation order (the allocation clock), matching
// the collector's notion of birth time.
func MeasureForward(events []Event) (ForwardStats, error) {
	var fs ForwardStats
	var s Stats
	for i, e := range events {
		src, err := s.stepAt(i, e)
		if err != nil {
			return fs, err
		}
		if e.Kind != KindPtrWrite {
			continue
		}
		fs.Stores++
		if e.Target == NilObject {
			fs.NilStore++
			continue
		}
		switch dst := s.objs[e.Target]; {
		case src.order < dst.order:
			fs.Forward++
		case src.order > dst.order:
			fs.Backward++
		default:
			fs.SelfSame++
		}
	}
	return fs, nil
}
