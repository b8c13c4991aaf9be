package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// now is the benchmark's single wall-clock read: host time is the
// quantity it measures. No simulated result depends on it.
func now() time.Time {
	return time.Now() //dtbvet:ignore determinism -- the benchmark measures host time; simulated results never read it
}

// span is one traced interval at a layer boundary. Times are offsets
// from the tracer's start; parent is the index of the enclosing span
// or -1; req ties together the spans of one request or pass.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
}

// tracer records spans in memory. A nil tracer records nothing, so
// the untraced run pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cost  time.Duration // time spent inside begin/end
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its id, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	in := now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: in.Sub(t.t0), End: -1, Parent: parent, Req: req})
	t.cost += now().Sub(in)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := now()
	t.mu.Lock()
	t.spans[id].End = at.Sub(t.t0)
	t.cost += now().Sub(at)
	t.mu.Unlock()
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Req: req})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// overhead is the wall time spent recording spans.
func (t *tracer) overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its child spans cover. Overlapping
// children (concurrent work under one parent) are merged first, so a
// covered instant is subtracted once, and a child's part outside its
// parent's interval is not subtracted at all.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(0), time.Duration(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
				continue
			}
			curHi = max(curHi, v.hi)
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums self time and total time by span name.
type layerTimes struct {
	self  map[string]time.Duration
	total map[string]time.Duration
}

func sumLayers(spans []span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
	self := selfTimes(spans)
	for i, s := range spans {
		lt.self[s.Name] += self[i]
		lt.total[s.Name] += s.End - s.Start
	}
	return lt
}

// checkClosed reports a span left open, which would make every self
// time above it wrong.
func checkClosed(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never closed", i, s.Name)
		}
	}
	return nil
}
