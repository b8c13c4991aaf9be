package main

import (
	"sync"
	"time"
)

// timing is one open-loop operation's schedule: when it was due, when
// a sender picked it up, and when it finished, as offsets from the
// loop's start.
type timing struct {
	due, sent, done time.Duration
}

// latencyMs is the operation's latency counted from when it was due,
// so a stall also charges the operations that queued behind it.
func (t timing) latencyMs() float64 { return float64(t.done-t.due) / float64(time.Millisecond) }

// lateMs is how late the generator sent the operation.
func (t timing) lateMs() float64 { return float64(t.sent-t.due) / float64(time.Millisecond) }

// openLoop runs len(due) operations on a fixed schedule with at most
// conns in flight. Operation i is due at due[i] (ascending); when it
// comes due while every sender is busy it waits for the next free one.
// do runs operation i and may return work to run once the operation's
// end has been recorded, such as checking its answer, which then
// delays the sender but not the operation's latency. openLoop returns
// once every operation finished.
func openLoop(due []time.Duration, conns int, do func(i int) (after func())) []timing {
	out := make([]timing, len(due))
	start := now()
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(due) {
					return
				}
				if wait := due[i] - now().Sub(start); wait > 0 {
					time.Sleep(wait)
				}
				out[i].due = due[i]
				out[i].sent = now().Sub(start)
				after := do(i)
				out[i].done = now().Sub(start)
				if after != nil {
					after()
				}
			}
		}()
	}
	wg.Wait()
	return out
}
