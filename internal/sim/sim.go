// Package sim implements the paper's trace-driven garbage-collection
// simulation (Barrett & Zorn §5): allocation and deallocation events
// drive a model heap, scavenges are triggered at fixed allocation
// intervals, a threatening-boundary policy from internal/core chooses
// what to collect, and the free events serve as the liveness oracle.
//
// The machine model matches the paper's: a CPU executing a fixed
// number of instructions per second and a collector tracing a fixed
// number of bytes per second, so pause times are proportional to bytes
// traced and CPU overhead is total trace time over program run time.
//
// NewFleet is the incremental interface: it shares the
// collector-independent trace bookkeeping (the "tape") across many
// runners so a fan-out replay pays for decoding, validation and
// liveness accounting once instead of once per collector, and its
// FeedBatch is the one loop every event goes through. Run simulates an
// in-memory trace on a fleet of one; streamed traces replay through
// the engine package, which feeds a fleet from a decoder in batches so
// arbitrarily long traces simulate in constant memory.
package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/vmem"
)

// Machine is the paper's simulated hardware: 10 MIPS, tracing
// 500 kilobytes per second.
type Machine struct {
	MIPS          float64 // millions of instructions per second
	TraceBytesPer float64 // bytes the collector traces per second
}

// PaperMachine returns the machine model used throughout the paper's
// evaluation.
func PaperMachine() Machine {
	return Machine{MIPS: 10, TraceBytesPer: 500 * 1024}
}

// isZero reports whether the machine model was left unset. The bit
// test (not ==) keeps the sentinel exact: struct equality on float
// fields would also match -0 and miss nothing here today, but the
// module-wide rule is that float equality goes through Float64bits.
func (m Machine) isZero() bool {
	return math.Float64bits(m.MIPS) == 0 && math.Float64bits(m.TraceBytesPer) == 0
}

// Validate reports why the machine model is unusable, or nil. Both
// rates divide measurements (Seconds, PauseSeconds), so a zero,
// negative or non-finite rate would silently turn every derived
// metric into Inf or NaN; the zero Machine is exempt because
// Config.withDefaults replaces it with PaperMachine before any
// division happens.
func (m Machine) Validate() error {
	if !(m.MIPS > 0) || math.IsInf(m.MIPS, 0) {
		return fmt.Errorf("sim: Machine.MIPS must be positive and finite, got %v", m.MIPS)
	}
	if !(m.TraceBytesPer > 0) || math.IsInf(m.TraceBytesPer, 0) {
		return fmt.Errorf("sim: Machine.TraceBytesPer must be positive and finite, got %v", m.TraceBytesPer)
	}
	return nil
}

// Seconds converts an instruction count to wall time on this machine.
func (m Machine) Seconds(instrs uint64) float64 {
	return float64(instrs) / (m.MIPS * 1e6)
}

// PauseSeconds converts traced bytes to a collection pause.
func (m Machine) PauseSeconds(tracedBytes uint64) float64 {
	return float64(tracedBytes) / m.TraceBytesPer
}

// Mode selects what the run measures.
type Mode int

const (
	// ModePolicy runs a collector driven by Config.Policy.
	ModePolicy Mode = iota
	// ModeNoGC never collects: memory is cumulative allocation (the
	// paper's "No GC" row).
	ModeNoGC
	// ModeLive reclaims at the moment of death: memory is the exact
	// live-byte curve (the paper's "Live" row).
	ModeLive
)

// Config parameterizes one simulation run.
type Config struct {
	Mode         Mode
	Policy       core.Policy // required for ModePolicy
	Machine      Machine     // zero value replaced by PaperMachine
	TriggerBytes uint64      // scavenge interval; zero value = 1 MB
	RecordCurve  bool        // retain the Figure-2 memory series
	CurvePoints  int         // downsample limit for curves (0 = keep all)

	// PolicySeed seeds adaptive policies (core.AdaptivePolicy): the
	// per-run instance seed is derived deterministically from this
	// value, Label and the collector name, so every replay path —
	// solo, fan-out, streamed, checkpoint/resume — instantiates
	// identical state for the same configuration. Zero is a valid
	// seed. Pure policies ignore it.
	PolicySeed uint64

	// PageFrames, when non-zero, enables the virtual-memory model: an
	// LRU resident set of that many PageBytes-sized frames is driven
	// by mutator and collector touches, and the Result reports fault
	// counts — the locality axis generational collection was built
	// for. Objects are placed at bump addresses; scavenge survivors
	// are rewritten to fresh addresses (copying semantics), which is
	// what gives partial collection its locality advantage.
	PageFrames int
	// PageBytes defaults to 4096 when PageFrames is set.
	PageBytes uint64

	// ReferenceScan routes every boundary query (LiveBytesBornAfter)
	// through the O(live objects) reference tail scan instead of the
	// birth-epoch bucket accounting. The two are identical by
	// construction — the differential oracle (internal/audit) replays
	// one side of its comparison on this path to keep them provably
	// so. Queries run only at policy decisions, so even the naive scan
	// costs little; leave this off outside audits and debugging.
	ReferenceScan bool

	// UncompactedTape disables epoch-based compaction of dead tape
	// prefixes (see compact.go), pinning every object the trace ever
	// allocated in the tape for the whole run — the pre-compaction
	// memory profile. Compaction is invisible by construction; the
	// audit oracle replays its reference leg on this path to keep it
	// provably so. In a Fleet the tape is shared, so one config with
	// this set disables compaction for every runner in the fleet.
	UncompactedTape bool

	// Opportunistic enables Wilson & Moher-style scheduling on the
	// "when to collect" axis the paper contrasts with its own "what
	// to collect" contribution (§4): a Mark event in the trace — a
	// program quiescent point such as the end of a compilation pass
	// or a showpage — triggers a scavenge early, once at least half
	// the byte trigger has accumulated. The byte trigger still fires
	// as a backstop, so memory stays bounded on mark-free traces.
	Opportunistic bool

	// Probe, when non-nil, receives the run's telemetry events (see
	// Probe). Telemetry observes, never influences: a run's result is
	// identical with or without a probe attached, and a nil probe
	// costs the hot path nothing.
	Probe Probe
	// Label tags every event this run emits, so one sink can demux
	// several concurrent runs. Empty is fine for single runs.
	Label string
	// ProgressBytes sets the allocation interval between Progress
	// events; zero means 4 MB. Progress events are only produced when
	// a Probe is attached.
	ProgressBytes uint64
}

func (c Config) withDefaults() Config {
	if c.Machine.isZero() {
		c.Machine = PaperMachine()
	}
	if c.TriggerBytes == 0 {
		c.TriggerBytes = 1 << 20
	}
	if c.PageFrames > 0 && c.PageBytes == 0 {
		c.PageBytes = 4096
	}
	if c.ProgressBytes == 0 {
		c.ProgressBytes = 4 << 20
	}
	return c
}

// Validate reports why the configuration cannot run, or nil. It
// checks the post-default view of the config, so a zero Machine (to
// be replaced by PaperMachine) is valid while a half-filled one is
// not. NewFleet calls it on every config before any runner has emitted
// telemetry.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	switch c.Mode {
	case ModePolicy:
		if c.Policy == nil {
			return errors.New("sim: ModePolicy requires a Policy")
		}
	case ModeNoGC, ModeLive:
	default:
		return fmt.Errorf("sim: unknown mode %d", c.Mode)
	}
	return nil
}

// Result reports everything the paper's tables and figures need from
// one run.
type Result struct {
	Collector string // policy name, "NoGC" or "Live"

	// Table 2: memory (bytes; time-weighted mean over the run and max).
	MemMeanBytes float64
	MemMaxBytes  float64

	// Oracle live-byte statistics for the same run (the "Live" row and
	// tenured-garbage analysis).
	LiveMeanBytes float64
	LiveMaxBytes  float64

	// Table 3: pause times, seconds, one per scavenge.
	Pauses []float64

	// Table 4: total bytes traced and estimated CPU overhead.
	TracedTotalBytes uint64
	OverheadPct      float64

	Collections int
	TotalAlloc  uint64  // total bytes allocated by the program
	ExecSeconds float64 // program execution time on the machine model

	// Figure 2: memory-in-use and live-bytes series over the
	// allocation clock (nil unless Config.RecordCurve).
	Curve     *stats.Series
	LiveCurve *stats.Series

	// Virtual-memory model results (zero unless Config.PageFrames).
	PageFaults   uint64
	PageAccesses uint64

	// Full per-scavenge history (boundaries, traced, survivors).
	History core.History
}

// MedianPauseSeconds returns the median pause, 0 if no collections ran.
func (r *Result) MedianPauseSeconds() float64 { return stats.Percentile(r.Pauses, 50) }

// P90PauseSeconds returns the 90th-percentile pause.
func (r *Result) P90PauseSeconds() float64 { return stats.Percentile(r.Pauses, 90) }

// TenuredGarbageMeanBytes is the time-weighted mean of dead storage
// held in memory: what the collector's policy left unreclaimed above
// the oracle live floor.
func (r *Result) TenuredGarbageMeanBytes() float64 { return r.MemMeanBytes - r.LiveMeanBytes }

// birthBucketShift sizes the birth-epoch buckets behind
// LiveBytesBornAfter: 64 KB of allocation clock per bucket. Wider
// buckets shrink the bucket array but lengthen the partial scan at
// the boundary's own bucket; 64 KB keeps both small for paper-scale
// runs (a 100 MB trace is ~1600 buckets).
const birthBucketShift = 16

// birthBucket maps a clock reading to its birth-epoch bucket. The
// bucket index stays uint64 end to end: converting to int here would
// silently truncate on 32-bit platforms for clocks past 256 GB.
// Conversion to a slice index happens only after subtracting the
// tape's bucketBase and checking the result against maxBuckets.
func birthBucket(t core.Time) uint64 { return t.Bytes() >> birthBucketShift }

// resolved is one trace event after tape resolution: object identity
// replaced by a dense ordinal, sizes already looked up, validation
// already done. The event's instruction time and the allocation clock
// after it are the tape's own clocks, which do not move until every
// runner has applied the event. Applying a resolved event to a runner
// touches no maps and cannot fail, which is what makes the fan-out
// apply loop tight.
type resolved struct {
	kind trace.Kind
	ord  int32 // alloc: new ordinal; free/ptrwrite: target (-1 if unknown)
	size uint64
}

// tape is the collector-independent view of a replayed trace: every
// fact that is identical no matter which policy is running — object
// identity, sizes, birth times, the program's free oracle, the
// allocation clock, event validation, and the live-byte accounting
// behind boundary queries. A Fleet shares one tape across all of its
// runners so this work happens once per trace instead of once per
// collector.
//
// Objects are numbered by dense ordinals in allocation order,
// relative to a sliding base: epoch-based compaction (see compact.go)
// retires the prefix of ordinals whose whole birth cohort is dead and
// no runner can address again, shifting the per-ordinal arrays down
// and rebasing every retained ordinal, so the tape's footprint tracks
// the live set plus one birth epoch instead of the total number of
// objects the trace ever allocated. Retired trace IDs leave the index
// but stay summarized in a merged span set, so the validation
// contract survives compaction intact: trace IDs are unique for the
// lifetime of a trace (see trace.Validate), and an ID that reuses a
// retired object's number is still rejected as a duplicate
// allocation.
//
// The id→ordinal index is dense while every allocated ID is the
// previous one plus one, as in generated, Builder and decoded paper
// traces: the retained IDs are then exactly next-len(ids) .. next-1,
// an ID's ordinal is its offset from that base, and the map stays
// nil. The first out-of-sequence allocation fills index from ids
// once, and the tape answers from the map for the rest of the trace.
// lookup is the one place that reads either form.
type tape struct {
	index  map[trace.ObjectID]int32 // nil while the index is dense
	next   trace.ObjectID           // while dense: the ID one past the last allocated
	ids    []trace.ObjectID         // per ordinal: reverse of index, so retiring a prefix can delete its entries
	sizes  []uint64                 // per ordinal
	births []core.Time              // per ordinal, nondecreasing
	dead   []bool                   // per ordinal: freed by the program

	live uint64 // live bytes (the oracle)
	// liveByBirth[b-bucketBase] is the live bytes of objects born in
	// clock bucket b, maintained on every alloc and free. It makes
	// boundary queries (LiveBytesBornAfter, executed on every policy
	// decision and for every FEEDMED advance candidate) a partial scan
	// of one bucket plus a bucket-suffix sum instead of a tail scan
	// over all live objects. Compaction trims the all-dead prefix and
	// advances bucketBase; bucketBase never exceeds the clock's own
	// bucket, so the next alloc always lands at a valid index.
	liveByBirth []uint64
	bucketBase  uint64

	// Compaction state: whether it is enabled for this tape (off for
	// raw tapes, Config.UncompactedTape, and fleets whose vmem
	// baselines address every ordinal forever), the count of ordinals
	// retired behind the sliding base, the retired-ID summary, and the
	// event count at the last cadence check.
	compact          bool
	retiredOrds      uint64
	retired          idSpans
	trimmedBuckets   uint64
	lastCompactCheck int

	// Compaction tunables, fields so tests can tighten them; newTape
	// sets the package defaults. ordLimit caps the ordinals retained
	// at once (the int32 ordinal encoding's real limit — total objects
	// are unbounded once compaction slides the base); maxBuckets caps
	// the bucket span so the relative index always fits an int.
	checkEvery     int
	minRetire      int
	minTrimBuckets int
	ordLimit       int
	maxBuckets     uint64

	// The tape's clocks: the allocation clock, the instruction time
	// of the last resolved event, and the count of resolved events.
	// Runners read them instead of keeping copies.
	clock     core.Time
	lastInstr uint64
	events    int
}

func newTape() *tape {
	return &tape{
		checkEvery:     compactCheckEvery,
		minRetire:      compactMinRetire,
		minTrimBuckets: compactMinTrimBuckets,
		ordLimit:       math.MaxInt32,
		maxBuckets:     1 << 31,
	}
}

// resolve validates one event against the tape and advances the shared
// state, filling out with the collector-independent facts runners need
// to apply it. A failed resolve leaves the tape untouched, so feeding
// can stop exactly at the offending event.
//
//dtbvet:hotpath one call per trace event, shared by every runner on the tape
func (tp *tape) resolve(e trace.Event, out *resolved) error {
	i := tp.events
	if e.Instr < tp.lastInstr {
		return fmt.Errorf("sim: event %d: clock regressed", i)
	}
	switch e.Kind {
	case trace.KindAlloc:
		if _, dup := tp.lookup(e.ID); dup {
			return fmt.Errorf("sim: event %d: duplicate allocation of object %d", i, e.ID)
		}
		// An ID missing from the index may still have been seen and
		// retired by compaction; reusing it is the same trace defect.
		if len(tp.retired) > 0 && tp.retired.contains(e.ID) {
			return fmt.Errorf("sim: event %d: duplicate allocation of object %d", i, e.ID)
		}
		if len(tp.sizes) >= tp.ordLimit {
			return fmt.Errorf("sim: event %d: tape ordinal limit: %d objects retained at once", i, len(tp.sizes))
		}
		clock := tp.clock.Add(e.Size)
		b := birthBucket(clock)
		if b-tp.bucketBase >= tp.maxBuckets {
			return fmt.Errorf("sim: event %d: birth bucket %d out of range (base %d, limit %d buckets)", i, b, tp.bucketBase, tp.maxBuckets)
		}
		ord := int32(len(tp.sizes))
		// The tape's first allocation may carry any ID; every later
		// one must be the previous ID plus one to stay dense.
		if tp.index == nil && e.ID != tp.next && (len(tp.ids) > 0 || tp.retiredOrds > 0) {
			tp.sparsify()
		}
		if tp.index == nil {
			tp.next = e.ID + 1
		} else {
			tp.index[e.ID] = ord
		}
		tp.clock = clock
		tp.ids = append(tp.ids, e.ID)
		tp.sizes = append(tp.sizes, e.Size)
		tp.births = append(tp.births, clock)
		tp.dead = append(tp.dead, false)
		tp.live += e.Size
		rb := int(b - tp.bucketBase)
		if rb >= len(tp.liveByBirth) {
			tp.liveByBirth = growBuckets(tp.liveByBirth, rb+1)
		}
		tp.liveByBirth[rb] += e.Size
		*out = resolved{kind: trace.KindAlloc, ord: ord, size: e.Size}
	case trace.KindFree:
		ord, ok := tp.lookup(e.ID)
		if !ok {
			// A retired object was dead when it left the tape, so a free
			// of its ID is the double free it would have been before
			// compaction — same defect, same error.
			if len(tp.retired) > 0 && tp.retired.contains(e.ID) {
				return fmt.Errorf("sim: event %d: double free of object %d", i, e.ID)
			}
			return fmt.Errorf("sim: event %d: free of unknown object %d", i, e.ID)
		}
		if tp.dead[ord] {
			return fmt.Errorf("sim: event %d: double free of object %d", i, e.ID)
		}
		tp.dead[ord] = true
		size := tp.sizes[ord]
		tp.live -= size
		// A live object's bucket holds at least its own size, so it can
		// never be part of a trimmed (all-dead) prefix: the subtraction
		// index is always in range.
		tp.liveByBirth[birthBucket(tp.births[ord])-tp.bucketBase] -= size
		*out = resolved{kind: trace.KindFree, ord: ord, size: size}
	case trace.KindPtrWrite:
		// Pointer stores do not affect the oracle liveness; the target
		// ordinal is resolved here so the virtual-memory model can
		// touch it without a map lookup per runner. A retired ID misses
		// the index and resolves to unknown (-1) — observably identical
		// to the uncompacted tape, because retirement requires every
		// runner to have reclaimed the object already, and reclaimed
		// objects are not touched either way.
		ord, ok := tp.lookup(e.ID)
		if !ok {
			ord = -1
		}
		*out = resolved{kind: trace.KindPtrWrite, ord: ord}
	case trace.KindMark:
		*out = resolved{kind: trace.KindMark, ord: -1}
	default:
		return fmt.Errorf("sim: event %d: unknown kind %d", i, e.Kind)
	}
	tp.lastInstr = e.Instr
	tp.events++
	return nil
}

// lookup returns the ordinal of a retained trace ID. Retired and
// never-allocated IDs miss; resolve tells them apart with the
// retired span set.
func (tp *tape) lookup(id trace.ObjectID) (int32, bool) {
	if tp.index == nil {
		// Unsigned wrap-around makes every ID below the base an offset
		// past len(ids), so one comparison covers both ends.
		if off := id - (tp.next - trace.ObjectID(len(tp.ids))); off < trace.ObjectID(len(tp.ids)) {
			return int32(off), true
		}
		return 0, false
	}
	ord, ok := tp.index[id]
	return ord, ok
}

// sparsify leaves dense mode for good: the map is filled from ids
// once, and every later lookup reads it.
func (tp *tape) sparsify() {
	tp.index = make(map[trace.ObjectID]int32, len(tp.ids))
	for ord, id := range tp.ids {
		tp.index[id] = int32(ord)
	}
}

// liveBytesBornAfter is the bucketed boundary query over the tape.
// Reclaimed objects stay in the ordinal arrays with dead=true, which
// cannot change the sum — only live bytes count — so the query is
// identical for every runner sharing the tape regardless of how much
// each one has scavenged.
//
//dtbvet:hotpath consulted by every policy Boundary() call during replay
func (tp *tape) liveBytesBornAfter(t core.Time) uint64 {
	births := tp.births
	i := sort.Search(len(births), func(i int) bool { return births[i] > t })
	b := birthBucket(t)
	// Births sharing t's bucket need individual comparison — the
	// bucket sums only cover whole buckets. Later buckets hold only
	// births strictly after t, so their sums apply wholesale. The scan
	// ends on bucket identity, not a computed bucket-end clock: for
	// the final bucket of the clock space that end value would wrap
	// to zero and the scan would run over every retained birth.
	var sum uint64
	for ; i < len(births) && birthBucket(births[i]) == b; i++ {
		if !tp.dead[i] {
			sum += tp.sizes[i]
		}
	}
	// Bucket sums are stored relative to bucketBase. A query at or
	// below the trimmed prefix starts the suffix at the base: the
	// trimmed buckets hold no live bytes by construction.
	j := uint64(0)
	if b+1 > tp.bucketBase {
		j = b + 1 - tp.bucketBase
	}
	for ; j < uint64(len(tp.liveByBirth)); j++ {
		sum += tp.liveByBirth[j]
	}
	return sum
}

// growBuckets extends the bucket slice to length n in one sized step,
// zeroing any cells reused from capacity left behind by a prefix trim
// (the copy-down leaves stale sums past the new length).
func growBuckets(s []uint64, n int) []uint64 {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		for i := old; i < n; i++ {
			s[i] = 0
		}
		return s
	}
	t := make([]uint64, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// liveBytesBornAfterNaive is the reference tail scan the bucket
// accounting replaced; the equivalence test pins the two together,
// and Config.ReferenceScan runs whole simulations on this path so the
// audit oracle can diff the results.
func (tp *tape) liveBytesBornAfterNaive(t core.Time) uint64 {
	births := tp.births
	i := sort.Search(len(births), func(i int) bool { return births[i] > t })
	var sum uint64
	for ; i < len(births); i++ {
		if !tp.dead[i] {
			sum += tp.sizes[i]
		}
	}
	return sum
}

// policyHeap is the core.Heap view a policy sees at a decision point:
// bytes-in-use are this runner's (reclamation timing is policy
// dependent) while live-byte queries come from the shared tape (the
// free oracle is policy independent).
type policyHeap struct{ r *Runner }

// BytesInUse implements core.Heap.
func (h policyHeap) BytesInUse() uint64 { return h.r.inUse }

// LiveBytesBornAfter implements core.Heap.
func (h policyHeap) LiveBytesBornAfter(t core.Time) uint64 {
	if h.r.cfg.ReferenceScan {
		return h.r.tape.liveBytesBornAfterNaive(t)
	}
	return h.r.tape.liveBytesBornAfter(t)
}

// Runner is one collector's simulation state within a Fleet: the
// fleet resolves each event against the shared tape and the runner
// applies it to its own heap model.
type Runner struct {
	cfg  Config
	res  *Result
	tape *tape
	view core.Heap // policyHeap, boxed once at construction

	// Per-collector heap state. objs holds the ordinals of objects
	// present in this runner's heap (live or dead-but-unreclaimed), in
	// birth order; scavenge compacts it. Sizes, births and deadness
	// live on the tape.
	objs  []int32
	inUse uint64 // live + dead-but-unreclaimed bytes

	// instance is the per-run state of an adaptive policy, minted by
	// newRunner from the config-derived seed; nil for pure policies
	// and the NoGC/Live baselines. explain is the same instance's
	// optional telemetry view.
	instance core.PolicyInstance
	explain  core.DecisionExplainer

	// isPolicy/opportunistic/hasProbe cache config tests so the batch
	// apply loop branches on booleans instead of chasing cfg fields.
	isPolicy      bool
	opportunistic bool
	hasProbe      bool

	// Trigger and sampling state; the clocks it runs against are the
	// tape's. liveStat stays per runner although every runner samples the same
	// tape.live: an opportunistic runner also samples at Mark-triggered
	// scavenges, so its sample instants — and the rounding of its
	// float64 sums — differ from its neighbours'.
	sinceTrigger  uint64
	sinceProgress uint64
	memStat       stats.Weighted
	liveStat      stats.Weighted
	curve         *stats.Series
	liveCurve     *stats.Series

	// Virtual-memory model (nil unless configured). Placement is per
	// runner: survivors relocate at scavenges, so addresses diverge
	// between collectors after the first collection. present tracks
	// which ordinals are still in this runner's heap (pointer stores
	// to reclaimed objects touch nothing).
	pages    *vmem.Model
	nextAddr uint64
	addrs    []uint64
	present  []bool
}

// newRunner returns a Runner on the given tape, ready for events, and
// fires the probe's RunStart. The config must have passed Validate.
func newRunner(tp *tape, cfg Config) *Runner {
	cfg = cfg.withDefaults()
	res := &Result{}
	switch cfg.Mode {
	case ModePolicy:
		res.Collector = cfg.Policy.Name()
	case ModeNoGC:
		res.Collector = "NoGC"
	case ModeLive:
		res.Collector = "Live"
	}
	r := &Runner{cfg: cfg, res: res, tape: tp}
	r.view = policyHeap{r}
	r.isPolicy = cfg.Mode == ModePolicy
	if r.isPolicy {
		if ap, ok := cfg.Policy.(core.AdaptivePolicy); ok {
			r.instance = ap.NewRun(derivePolicySeed(cfg.PolicySeed, cfg.Label, res.Collector))
			r.explain, _ = r.instance.(core.DecisionExplainer)
		}
	}
	r.opportunistic = r.isPolicy && cfg.Opportunistic
	r.hasProbe = cfg.Probe != nil
	if cfg.RecordCurve {
		r.curve = &stats.Series{Name: res.Collector}
		r.liveCurve = &stats.Series{Name: "Live"}
	}
	if cfg.PageFrames > 0 {
		r.pages = vmem.New(cfg.PageBytes, cfg.PageFrames)
	}
	if p := cfg.Probe; p != nil {
		p.RunStart(RunStart{
			Label:         cfg.Label,
			Collector:     res.Collector,
			Machine:       cfg.Machine,
			TriggerBytes:  cfg.TriggerBytes,
			ProgressBytes: cfg.ProgressBytes,
			Opportunistic: cfg.Opportunistic,
		})
	}
	return r
}

// Collector returns the name the run's Result will carry ("Full",
// "DtbFM", "NoGC", ...). It is available from construction, so replay
// harnesses can label per-runner errors before Finish.
func (r *Runner) Collector() string { return r.res.Collector }

// PolicyInstance returns the runner's adaptive-policy state, or nil
// for pure policies and the baselines. It is exposed for checkpoint
// tooling and tests; mutating it mid-run breaks replay bit-identity
// unless the state is restored before feeding resumes, which is
// exactly what engine.Checkpoint does.
func (r *Runner) PolicyInstance() core.PolicyInstance { return r.instance }

// derivePolicySeed turns the user-facing PolicySeed into the per-run
// instance seed: FNV-1a over the label and collector name, folded
// with the user seed through a splitmix64 finalizer. Deriving from
// the config alone (never from run order or wall time) is what lets
// every replay path mint bit-identical instances.
func derivePolicySeed(userSeed uint64, label, collector string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	h *= prime // separator so ("ab","c") and ("a","bc") differ
	for i := 0; i < len(collector); i++ {
		h ^= uint64(collector[i])
		h *= prime
	}
	z := h ^ (userSeed + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *Runner) memInUse() uint64 {
	switch r.cfg.Mode {
	case ModeNoGC:
		return r.tape.clock.Bytes() // cumulative allocation, frees ignored
	case ModeLive:
		return r.tape.live
	default:
		return r.inUse
	}
}

// sample records memory in use and live bytes at the event being
// applied.
func (r *Runner) sample() {
	tp := r.tape
	m := r.memInUse()
	r.memStat.Observe(float64(tp.lastInstr), float64(m))
	r.liveStat.Observe(float64(tp.lastInstr), float64(tp.live))
	if r.curve != nil {
		r.curve.Append(float64(tp.clock), float64(m))
		r.liveCurve.Append(float64(tp.clock), float64(tp.live))
	}
}

// errFeedAfterFinish is allocated once so the hot entry point returns
// it without formatting.
var errFeedAfterFinish = errors.New("sim: FeedBatch after Finish")

// apply runs the event the tape just resolved through this runner's
// collector. The event was validated by the tape, so apply cannot
// fail; everything here is per-collector work (memory accounting,
// trigger bookkeeping, sampling, scavenges).
//
//dtbvet:hotpath the per-runner apply of every replay event
func (r *Runner) apply(ev *resolved) {
	switch ev.kind {
	case trace.KindAlloc:
		r.inUse += ev.size
		if r.isPolicy {
			r.objs = append(r.objs, ev.ord)
		}
		if r.pages != nil {
			addr := r.nextAddr
			r.nextAddr += ev.size
			r.addrs = append(r.addrs, addr)
			r.present = append(r.present, true)
			r.pages.Touch(addr, ev.size) // the mutator initializes it
		}
		r.sinceTrigger += ev.size
		r.sample()
		if r.isPolicy && r.sinceTrigger >= r.cfg.TriggerBytes {
			r.sinceTrigger = 0
			r.scavenge(TriggerByteBudget)
			r.sample()
		}
		if r.hasProbe {
			r.sinceProgress += ev.size
			if r.sinceProgress >= r.cfg.ProgressBytes {
				r.sinceProgress = 0
				r.cfg.Probe.Progress(Progress{
					Label:       r.cfg.Label,
					Events:      r.tape.events,
					Instr:       r.tape.lastInstr,
					Clock:       r.tape.clock,
					InUse:       r.memInUse(),
					Live:        r.tape.live,
					Collections: r.res.Collections,
				})
			}
		}
	case trace.KindFree:
		if r.pages != nil {
			// The object is necessarily still present: only dead
			// objects are reclaimed, and this one was live until
			// this very event.
			r.pages.Touch(r.addrs[ev.ord], ev.size) // last mutator access
		}
		r.sample()
	case trace.KindMark:
		if r.opportunistic && r.sinceTrigger >= r.cfg.TriggerBytes/2 {
			r.sinceTrigger = 0
			r.scavenge(TriggerMark)
			r.sample()
		}
	case trace.KindPtrWrite:
		// Pointer stores do not affect the oracle liveness, but they
		// do touch memory for the virtual-memory model.
		if r.pages != nil && ev.ord >= 0 && r.present[ev.ord] {
			r.pages.Touch(r.addrs[ev.ord], 8)
		}
	default:
		// Unreachable: resolve rejects unknown kinds.
	}
}

//dtbvet:hotpath one call per simulated collection
func (r *Runner) scavenge(reason TriggerReason) {
	tp, cfg, res := r.tape, r.cfg, r.res
	now := tp.clock
	memBefore := r.inUse
	var tb core.Time
	if r.instance != nil {
		tb = core.ClampBoundary(r.instance.Boundary(now, &res.History, r.view), now)
	} else {
		tb = core.ClampBoundary(cfg.Policy.Boundary(now, &res.History, r.view), now)
	}
	if p := cfg.Probe; p != nil {
		d := Decision{
			Label:      cfg.Label,
			N:          res.Collections + 1,
			Trigger:    reason,
			Now:        now,
			TB:         tb,
			Candidates: boundaryCandidates(&res.History),
			MemBefore:  memBefore,
			LiveBefore: tp.live,
		}
		if r.explain != nil {
			if info, ok := r.explain.LastDecision(); ok {
				d.Adaptive = &AdaptiveDecision{Arm: info.Arm, FeatureDigest: info.FeatureDigest} //dtbvet:ignore hotalloc -- one tiny allocation per *collection* (not per event), only on adaptive runs with a probe; a scratch field would alias runner state into probes
			}
		}
		p.Decision(d)
	}
	// Collect with boundary tb: every dead object born after tb is
	// reclaimed, every live one born after tb is traced. objs is birth
	// ordered, so the threatened region is a suffix.
	births := tp.births
	objs := r.objs
	start := sort.Search(len(objs), func(i int) bool { return births[objs[i]] > tb })
	var traced, reclaimed uint64
	w := start
	for i := start; i < len(objs); i++ {
		ord := objs[i]
		size := tp.sizes[ord]
		if tp.dead[ord] {
			reclaimed += size
			r.inUse -= size
			if r.present != nil {
				r.present[ord] = false
			}
			continue
		}
		traced += size
		objs[w] = ord
		w++
	}
	r.objs = objs[:w]
	if r.pages != nil {
		// Copying semantics: every survivor of the threatened region
		// is read at its old address and written to a fresh one; the
		// collector never touches garbage.
		for i := start; i < len(r.objs); i++ {
			ord := r.objs[i]
			size := tp.sizes[ord]
			r.pages.Touch(r.addrs[ord], size)
			r.addrs[ord] = r.nextAddr
			r.nextAddr += size
			r.pages.Touch(r.addrs[ord], size)
		}
	}
	res.History.Record(core.Scavenge{
		T:         now,
		TB:        tb,
		MemBefore: memBefore,
		Traced:    traced,
		Reclaimed: reclaimed,
		Surviving: r.inUse,
	})
	res.Collections++
	res.TracedTotalBytes += traced
	pause := cfg.Machine.PauseSeconds(traced)
	res.Pauses = append(res.Pauses, pause)
	if p := cfg.Probe; p != nil {
		p.Scavenge(ScavengeEvent{
			Label:          cfg.Label,
			N:              res.Collections,
			Trigger:        reason,
			T:              now,
			TB:             tb,
			MemBefore:      memBefore,
			Traced:         traced,
			Reclaimed:      reclaimed,
			Surviving:      r.inUse,
			Live:           tp.live,
			TenuredGarbage: r.inUse - tp.live,
			PauseSeconds:   pause,
		})
	}
	if r.instance != nil {
		r.instance.Observe(core.ScavengeFacts{
			Scavenge:      res.History.Scavenges[len(res.History.Scavenges)-1],
			Live:          tp.live,
			MarkTriggered: reason == TriggerMark,
		})
	}
}

// finish closes the run and returns the Result. Fleet.Finish calls it
// once per runner.
func (r *Runner) finish() *Result {
	tp := r.tape
	r.memStat.Finish(float64(tp.lastInstr))
	r.liveStat.Finish(float64(tp.lastInstr))
	res := r.res
	res.MemMeanBytes = r.memStat.Mean()
	res.MemMaxBytes = r.memStat.Max()
	res.LiveMeanBytes = r.liveStat.Mean()
	res.LiveMaxBytes = r.liveStat.Max()
	res.TotalAlloc = tp.clock.Bytes()
	res.ExecSeconds = r.cfg.Machine.Seconds(tp.lastInstr)
	if res.ExecSeconds > 0 {
		res.OverheadPct = 100 * r.cfg.Machine.PauseSeconds(res.TracedTotalBytes) / res.ExecSeconds
	}
	if r.pages != nil {
		res.PageFaults = r.pages.Faults()
		res.PageAccesses = r.pages.Accesses()
	}
	if r.cfg.RecordCurve {
		curve, liveCurve := r.curve, r.liveCurve
		if r.cfg.CurvePoints > 0 {
			curve = curve.Downsample(r.cfg.CurvePoints)
			liveCurve = liveCurve.Downsample(r.cfg.CurvePoints)
		}
		res.Curve = curve
		res.LiveCurve = liveCurve
	}
	if p := r.cfg.Probe; p != nil {
		p.RunFinish(RunFinish{Label: r.cfg.Label, Result: res})
	}
	return res
}

// Fleet runs many collectors over one trace, sharing the tape — the
// id→ordinal index, validation, the free oracle and the live-byte
// accounting — across all of them. Each batch is resolved once and
// then applied to every runner in a tight per-collector loop, so the
// per-event map and validation cost is paid once per trace instead of
// once per collector. Every runner's Result, History and telemetry
// sequence is bit-identical to a solo run over the same events.
type Fleet struct {
	tape    *tape
	runners []*Runner
	results []*Result // set by Finish
}

// NewFleet validates every config before constructing any runner (a
// bad config halfway through the set would otherwise leave earlier
// runners' telemetry streams opened but never finished), then builds
// the runners in config order on one shared tape.
func NewFleet(cfgs []Config) (*Fleet, error) {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: config %d: %w", i, err)
		}
	}
	tp := newTape()
	f := &Fleet{tape: tp, runners: make([]*Runner, 0, len(cfgs))}
	seen := make(map[core.PolicyInstance]int)
	for i, cfg := range cfgs {
		r := newRunner(tp, cfg)
		if inst := r.instance; inst != nil && reflect.TypeOf(inst).Comparable() {
			// A shared instance would let one runner's learning leak into
			// another's decisions — the exact hazard the per-run contract
			// exists to prevent. NewRun must mint fresh state every call.
			if j, dup := seen[inst]; dup {
				return nil, fmt.Errorf("sim: configs %d and %d share one adaptive policy instance (%T): NewRun must mint a fresh instance per run", j, i, inst)
			}
			seen[inst] = i
		}
		f.runners = append(f.runners, r)
	}
	tp.compact = tapeCompactionAllowed(f.runners)
	return f, nil
}

// Runners returns the fleet's runners in config order. They are owned
// by the fleet: events reach them only through FeedBatch.
func (f *Fleet) Runners() []*Runner { return f.runners }

// SnapshotPolicyState captures the adaptive-policy state of every
// runner, in config order: one opaque snapshot per runner, nil for
// runners whose policy is pure (or whose mode is not ModePolicy). The
// engine's checkpoints store these alongside the event count so a
// resumed replay restores the learned state the checkpoint saw rather
// than trusting whatever mutated in memory since.
func (f *Fleet) SnapshotPolicyState() [][]byte {
	out := make([][]byte, len(f.runners))
	for i, r := range f.runners {
		if r.instance != nil {
			out[i] = r.instance.Snapshot()
		}
	}
	return out
}

// RestorePolicyState restores the per-runner adaptive state captured
// by SnapshotPolicyState on the same fleet shape: the slice length and
// the nil/non-nil pattern must match the fleet's runners exactly. A
// failed restore leaves earlier runners restored — callers treat any
// error as fatal for the replay, so partial application is harmless.
func (f *Fleet) RestorePolicyState(snaps [][]byte) error {
	if len(snaps) != len(f.runners) {
		return fmt.Errorf("sim: policy state for %d runners cannot restore a fleet of %d", len(snaps), len(f.runners))
	}
	for i, snap := range snaps {
		inst := f.runners[i].instance
		switch {
		case snap == nil && inst == nil:
			// pure policy on both sides
		case snap == nil:
			return fmt.Errorf("sim: runner %d (%s) has adaptive state but the snapshot recorded none", i, f.runners[i].res.Collector)
		case inst == nil:
			return fmt.Errorf("sim: snapshot carries adaptive state for runner %d (%s) but its policy is pure", i, f.runners[i].res.Collector)
		default:
			if err := inst.Restore(snap); err != nil {
				return fmt.Errorf("sim: runner %d (%s): restore policy state: %w", i, f.runners[i].res.Collector, err)
			}
		}
	}
	return nil
}

// Events returns the number of events the fleet has processed.
func (f *Fleet) Events() int { return f.tape.events }

// FeedBatch resolves each event once against the shared tape and
// applies it to every runner in lockstep before resolving the next, so
// a runner's policy queries and samples see the tape exactly at the
// event being applied — the same state a solo run would see, which is
// what keeps fleet results bit-identical to per-event replays. The
// per-event map lookups and validation still happen once per event
// instead of once per runner, and the batch boundary hoists the
// finished check and the caller's cancellation check off the per-event
// path. On a validation error, every runner has applied exactly the
// events before the offending one — the fleet stays consistent, and
// the error is what a one-event FeedBatch would have returned.
//
//dtbvet:hotpath one call per replay batch: resolve once, apply N times
func (f *Fleet) FeedBatch(events []trace.Event) error {
	if f.results != nil {
		return errFeedAfterFinish
	}
	if len(f.runners) == 0 {
		return nil
	}
	var ev resolved
	tp := f.tape
	for i := range events {
		if err := tp.resolve(events[i], &ev); err != nil {
			return err
		}
		for _, r := range f.runners {
			r.apply(&ev)
		}
		// Event-count cadence, checked only after every runner applied
		// the event: compaction never moves ordinals between a resolve
		// and its applies, and the compaction schedule — hence the
		// checkpoint watermark — is independent of batch boundaries.
		if tp.compact && tp.events-tp.lastCompactCheck >= tp.checkEvery {
			tp.maybeCompact(f.runners)
		}
	}
	return nil
}

// Finish closes every runner and returns their Results in config
// order. It is idempotent: later calls return the same slice.
func (f *Fleet) Finish() []*Result {
	if f.results == nil {
		f.results = make([]*Result, len(f.runners))
		for i, r := range f.runners {
			f.results[i] = r.finish()
		}
	}
	return f.results
}

// Run simulates one collector over a complete in-memory trace on a
// fleet of one, fed one event per FeedBatch call — the per-event
// reference path the batched replays are diffed against. The trace
// must be well-formed; Run reports the first inconsistency it hits as
// an error.
func Run(events []trace.Event, cfg Config) (*Result, error) {
	f, err := NewFleet([]Config{cfg})
	if err != nil {
		return nil, err
	}
	for i := range events {
		if err := f.FeedBatch(events[i : i+1]); err != nil {
			return nil, err
		}
	}
	return f.Finish()[0], nil
}
