package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapObjectsMetric is the bytes of heap objects, live or not yet
// swept: the Go heap's size as the process holds it.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSampler tracks the Go heap's high-water mark from a background
// goroutine, window by window. The workload closes a window at each
// pass; with a fixed period the sampler closes them itself. The
// reported peak is the median of the window peaks, which shrugs off
// the one window where a collection happened to come late.
type heapSampler struct {
	mu      sync.Mutex
	cur     uint64   // peak of the open window
	windows []uint64 // peaks of the closed windows

	stop chan struct{}
	done chan struct{}
}

// heapSampleEvery is fine enough to catch the heap near its peak in
// most collection cycles, and coarse enough to cost nothing measurable.
const heapSampleEvery = time.Millisecond

// startHeapSampler starts sampling. A positive period closes a window
// every period; zero leaves closing them to cut.
func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		read := func() {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			h.mu.Lock()
			h.cur = max(h.cur, v)
			h.mu.Unlock()
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var windows <-chan time.Time
		if period > 0 {
			w := time.NewTicker(period)
			defer w.Stop()
			windows = w.C
		}
		read()
		for {
			select {
			case <-tick.C:
				read()
			case <-windows:
				read()
				h.cut()
			case <-h.stop:
				read()
				return
			}
		}
	}()
	return h
}

// cut closes the current window.
func (h *heapSampler) cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.windows = append(h.windows, h.cur)
	h.cur = 0
}

// drop discards the current window, for work the peak should not
// count.
func (h *heapSampler) drop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cur = 0
}

// peak stops the sampler, waits for it to exit and returns the median
// window peak in bytes. An open window counts only if none closed.
func (h *heapSampler) peak() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.windows) == 0 {
		return float64(h.cur)
	}
	peaks := make([]float64, len(h.windows))
	for i, w := range h.windows {
		peaks[i] = float64(w)
	}
	return median(peaks)
}
