package daemon

import (
	"sync"
	"time"

	"github.com/dtbgc/dtbgc/internal/stats"
)

// serviceSamples bounds the service-time reservoir the percentiles
// are computed over: the last serviceSamples completed evaluations.
const serviceSamples = 1024

// MetricsSnapshot is the GET /v1/metrics payload: a consistent
// point-in-time view of the daemon's serving counters. Counters are
// cumulative since process start; gauges are instantaneous. This
// struct is the schema: dtbtelemetrycheck -metrics accepts exactly its
// encoding, and checks the serving identity memo_hits + cold_evals ==
// evals_served, in CI.
type MetricsSnapshot struct {
	// Serving counters.
	EvalsServed  uint64 `json:"evals_served"` // responses sent with a result
	MemoHits     uint64 `json:"memo_hits"`    // served straight from the memo table
	ColdEvals    uint64 `json:"cold_evals"`   // actually replayed
	TapeHits     uint64 `json:"tape_hits"`    // cold evals that reused a decoded tape
	Rejected     uint64 `json:"rejected"`     // 429 admission rejections
	Failed       uint64 `json:"failed"`       // evaluations that returned an error
	TraceUploads uint64 `json:"trace_uploads"`

	// Instantaneous load.
	InFlight int64 `json:"in_flight"` // evaluations holding a worker slot
	Queued   int64 `json:"queued"`    // admitted, waiting for a slot

	// Configuration echoes, so a scraper can normalize load.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`

	// Cache occupancy.
	TapeCacheTraces int   `json:"tape_cache_traces"`
	TapeCacheBytes  int64 `json:"tape_cache_bytes"`
	MemoEntries     int   `json:"memo_entries"`

	// Service-time distribution over the last up-to-1024 served
	// evaluations (memo hits included — the speedup is the point).
	ServiceP50Ms float64 `json:"service_p50_ms"`
	ServiceP99Ms float64 `json:"service_p99_ms"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}

// metrics is the mutable counter state behind MetricsSnapshot. One
// mutex covers every field: the counters are touched a handful of
// times per request, so contention is irrelevant next to a replay,
// and a single lock keeps the snapshot internally consistent (the
// identity checks in CI would catch torn reads).
type metrics struct {
	mu      sync.Mutex
	started time.Time

	evalsServed  uint64
	memoHits     uint64
	coldEvals    uint64
	tapeHits     uint64
	rejected     uint64
	failed       uint64
	traceUploads uint64

	inFlight int64
	queued   int64

	service [serviceSamples]float64 // ring of service times in ms
	n       int                     // samples written (monotonic)
}

func newMetrics(now time.Time) *metrics {
	return &metrics{started: now}
}

func (m *metrics) lockAdd(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f()
}

func (m *metrics) servedMemo(serviceMs float64) {
	m.lockAdd(func() { m.evalsServed++; m.memoHits++; m.sample(serviceMs) })
}

func (m *metrics) servedCold(tapeHit bool, serviceMs float64) {
	m.lockAdd(func() {
		m.evalsServed++
		m.coldEvals++
		if tapeHit {
			m.tapeHits++
		}
		m.sample(serviceMs)
	})
}

func (m *metrics) sample(ms float64) {
	m.service[m.n%serviceSamples] = ms
	m.n++
}

func (m *metrics) rejectedOne() { m.lockAdd(func() { m.rejected++ }) }
func (m *metrics) failedOne()   { m.lockAdd(func() { m.failed++ }) }
func (m *metrics) uploadedOne() { m.lockAdd(func() { m.traceUploads++ }) }

func (m *metrics) enqueue()  { m.lockAdd(func() { m.queued++ }) }
func (m *metrics) dequeue()  { m.lockAdd(func() { m.queued-- }) }
func (m *metrics) started1() { m.lockAdd(func() { m.inFlight++ }) }
func (m *metrics) done1()    { m.lockAdd(func() { m.inFlight-- }) }

// snapshot assembles the exported view; cache occupancy and the
// config echoes are the server's to fill in.
func (m *metrics) snapshot(now time.Time) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	filled := m.n
	if filled > serviceSamples {
		filled = serviceSamples
	}
	samples := make([]float64, filled)
	copy(samples, m.service[:filled])
	return MetricsSnapshot{
		EvalsServed:   m.evalsServed,
		MemoHits:      m.memoHits,
		ColdEvals:     m.coldEvals,
		TapeHits:      m.tapeHits,
		Rejected:      m.rejected,
		Failed:        m.failed,
		TraceUploads:  m.traceUploads,
		InFlight:      m.inFlight,
		Queued:        m.queued,
		ServiceP50Ms:  stats.Percentile(samples, 50),
		ServiceP99Ms:  stats.Percentile(samples, 99),
		UptimeSeconds: now.Sub(m.started).Seconds(),
	}
}
