package fault

import (
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Source wraps an event source with the plan's event-indexed faults.
// Offsets count events, not batches: SourceErr at offset n emits the
// events before n (trimming the batch that holds it) and then fails
// the stream, so a checkpoint lands exactly at n. Cancel invokes
// cancel at its offset instead — modelling an interrupt storm — and
// the stream itself keeps flowing until the consumer's next context
// check aborts it. A nil cancel is allowed when no Cancel fault is
// scheduled.
//
// Each event position is checked against at most one fault, the
// schedule's earliest unfired one, so faults sharing an offset fire
// at consecutive events, in schedule order.
func (p *Plan) Source(src engine.Source, cancel func()) engine.Source {
	if p == nil {
		return src
	}
	return func(emit func([]trace.Event) error) error {
		n := uint64(0) // stream offset of batch[0]
		return src(func(batch []trace.Event) error {
			end := n + uint64(len(batch))
			for at := n; ; at++ {
				f := p.next(SourceErr, Cancel)
				if f == nil {
					break
				}
				at = max(at, f.Offset)
				if at >= end {
					break
				}
				p.fire(f)
				if f.Kind == Cancel {
					cancel()
					continue
				}
				if k := at - n; k > 0 {
					if err := emit(batch[:k]); err != nil {
						return err
					}
				}
				return injected(f.Fault)
			}
			n = end
			return emit(batch)
		})
	}
}
