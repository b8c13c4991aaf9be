package sim

// Epoch-based compaction of dead tape prefixes. The tape numbers
// objects by allocation order, so the liveByBirth buckets double as a
// cohort map: a zero prefix of buckets means every object born before
// that clock epoch is dead — exactly the cohorts no boundary query
// (LiveBytesBornAfter takes a birth-time lower bound) can ever count
// again, in the same way age-segregated collectors discard whole dead
// generations. Once every runner has also reclaimed those objects
// from its own heap, the ordinal prefix is unreachable from every
// side and can be retired: its index entries deleted (summarized into
// retired ID spans so duplicate-allocation detection survives), the
// per-ordinal arrays shifted down behind a sliding base, every
// retained ordinal rebased, and the bucket prefix trimmed. Replay
// memory then tracks the live set plus one birth epoch instead of the
// total number of objects traced.
//
// Compaction is invisible: results, telemetry and error text are
// bit-identical with it on or off (Config.UncompactedTape), which the
// audit oracle re-proves on every run by replaying its reference leg
// uncompacted. It is also deterministic: the cadence gate counts
// events, not batches, so two replays of the same stream — including
// a checkpoint resume fed differently-shaped batches — compact at the
// same points and carry the same watermark.

import (
	"fmt"
	"sort"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// Compaction defaults. The cadence keeps the check off the per-event
// path; the retire and trim minimums amortize the O(retained) shift
// and map rewrite so compaction costs O(1) per event and the arrays
// never hold more than ~4/3 of their retired high-water mark.
const (
	compactCheckEvery     = 4096
	compactMinRetire      = 4096
	compactMinTrimBuckets = 64
)

// tapeCompactionAllowed reports whether the tape shared by these
// runners may compact: disabled by Config.UncompactedTape on any
// runner, and for NoGC/Live runners with the vmem model attached —
// those keep per-ordinal addresses live for every object forever (no
// scavenge ever clears them), so no prefix is ever retirable and the
// periodic scan would be pure waste.
func tapeCompactionAllowed(runners []*Runner) bool {
	for _, r := range runners {
		if r.cfg.UncompactedTape {
			return false
		}
		if !r.isPolicy && r.pages != nil {
			return false
		}
	}
	return true
}

// retainedFloor returns the lowest ordinal this runner can still
// address; every ordinal below it is out of the runner's reach and
// may retire. objs is birth-ordered, so for a policy runner the floor
// is its oldest unreclaimed object — dead-but-unreclaimed objects
// still get read by the next scavenge, so they pin the prefix until a
// collection sweeps them.
func (r *Runner) retainedFloor() int {
	if r.isPolicy {
		if len(r.objs) > 0 {
			return int(r.objs[0])
		}
		return len(r.tape.sizes)
	}
	// NoGC and Live track no per-ordinal state (tapeCompactionAllowed
	// excludes the vmem variants), so nothing pins the prefix.
	return len(r.tape.sizes)
}

// rebase shifts this runner's per-ordinal state down by k retired
// ordinals. Every retained ordinal is >= k (retire respects
// retainedFloor), so the subtraction cannot underflow.
func (r *Runner) rebase(k int) {
	d := int32(k)
	for i := range r.objs {
		r.objs[i] -= d
	}
	if r.pages != nil {
		r.addrs = r.addrs[:copy(r.addrs, r.addrs[k:])]
		r.present = r.present[:copy(r.present, r.present[k:])]
	}
}

// maybeCompact is the cadence-gated compaction check: find the
// all-dead bucket prefix, intersect the matching ordinal prefix with
// every runner's floor, retire it if large enough to amortize, and
// trim the dead bucket prefix. Callers gate on checkEvery before
// calling, so the hot path pays one comparison per event.
func (tp *tape) maybeCompact(runners []*Runner) {
	tp.lastCompactCheck = tp.events
	z := 0
	for z < len(tp.liveByBirth) && tp.liveByBirth[z] == 0 {
		z++
	}
	if z == 0 {
		return
	}
	// Ordinals born before the first live bucket are all dead (their
	// buckets sum to zero live bytes). The comparison is on bucket
	// identity — a computed epoch clock could overflow at the top of
	// the clock space.
	limit := tp.bucketBase + uint64(z)
	k := sort.Search(len(tp.births), func(i int) bool { return birthBucket(tp.births[i]) >= limit })
	for _, r := range runners {
		if f := r.retainedFloor(); f < k {
			k = f
		}
	}
	if k >= tp.minRetire && 4*k >= len(tp.sizes) {
		tp.retire(k, runners)
	}
	tp.trimBuckets()
}

// retire drops the first k ordinals from the tape: their IDs leave
// the index into the retired span summary, the per-ordinal arrays
// shift down in place (capacity is reused — the arrays' footprint is
// their retained high-water mark), the surviving index entries are
// rebased, and every runner shifts its own per-ordinal state. A dense
// tape has no map to edit: shifting ids down moves its base by k.
func (tp *tape) retire(k int, runners []*Runner) {
	for _, id := range tp.ids[:k] {
		tp.retired.add(id)
	}
	if tp.index != nil {
		for _, id := range tp.ids[:k] {
			delete(tp.index, id)
		}
		d := int32(k)
		//dtbvet:ignore determinism -- order-insensitive rebase: every value is adjusted independently, no fold over map order
		for id, ord := range tp.index {
			tp.index[id] = ord - d
		}
	}
	tp.ids = tp.ids[:copy(tp.ids, tp.ids[k:])]
	tp.sizes = tp.sizes[:copy(tp.sizes, tp.sizes[k:])]
	tp.births = tp.births[:copy(tp.births, tp.births[k:])]
	tp.dead = tp.dead[:copy(tp.dead, tp.dead[k:])]
	tp.retiredOrds += uint64(k)
	for _, r := range runners {
		r.rebase(k)
	}
}

// trimBuckets drops the all-dead bucket prefix and advances
// bucketBase, capped at the clock's own bucket so the next alloc —
// which may land in the current bucket — never indexes below the
// base.
func (tp *tape) trimBuckets() {
	z := 0
	for z < len(tp.liveByBirth) && tp.liveByBirth[z] == 0 {
		z++
	}
	if room := birthBucket(tp.clock) - tp.bucketBase; uint64(z) > room {
		z = int(room)
	}
	if z <= 0 || (z < tp.minTrimBuckets && 4*z < len(tp.liveByBirth)) {
		return
	}
	tp.liveByBirth = tp.liveByBirth[:copy(tp.liveByBirth, tp.liveByBirth[z:])]
	tp.bucketBase += uint64(z)
	tp.trimmedBuckets += uint64(z)
}

// IDSpan is an inclusive range [Lo, Hi] of retired trace object IDs.
type IDSpan struct {
	Lo, Hi trace.ObjectID
}

// idSpans summarizes the retired trace IDs as sorted, disjoint,
// non-adjacent inclusive ranges. Traces from trace.Builder allocate
// IDs monotonically, so the whole retired set collapses to one span
// and membership is O(1); arbitrary valid traces (IDs need only be
// unique) degrade gracefully to O(log spans) lookups and a span per
// gap — an explicit retired set, run-length compressed.
type idSpans []IDSpan

// contains reports whether id was retired.
func (s idSpans) contains(id trace.ObjectID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= id })
	return i < len(s) && s[i].Lo <= id
}

// add inserts id, merging with an adjacent span where possible. IDs
// arrive from retired ordinal prefixes, so in the common monotone
// trace every add extends the last span in place.
func (s *idSpans) add(id trace.ObjectID) {
	sp := *s
	i := sort.Search(len(sp), func(i int) bool { return sp[i].Hi >= id })
	if i < len(sp) && sp[i].Lo <= id {
		return // already present (unreachable from retire: IDs are unique)
	}
	// Adjacency tests cannot wrap: a span below id has Hi < id so
	// Hi+1 cannot overflow, and a span above id has Lo > id >= 0.
	joinsNext := i < len(sp) && sp[i].Lo == id+1
	joinsPrev := i > 0 && sp[i-1].Hi+1 == id
	switch {
	case joinsPrev && joinsNext:
		sp[i-1].Hi = sp[i].Hi
		*s = append(sp[:i], sp[i+1:]...)
	case joinsPrev:
		sp[i-1].Hi = id
	case joinsNext:
		sp[i].Lo = id
	default:
		sp = append(sp, IDSpan{})
		copy(sp[i+1:], sp[i:])
		sp[i] = IDSpan{Lo: id, Hi: id}
		*s = sp
	}
}

// TapeStats describes the tape's retained footprint, for tests and
// the retained-memory benchmarks. Retained counts shrink when
// compaction retires prefixes; Retired* counts only grow.
type TapeStats struct {
	Events          int    // trace events resolved
	RetainedObjects int    // ordinals currently held in the tape arrays
	RetiredObjects  uint64 // ordinals retired behind the sliding base
	RetiredIDSpans  int    // spans summarizing the retired IDs
	Buckets         int    // birth-epoch buckets currently held
	TrimmedBuckets  uint64 // buckets trimmed off the prefix so far
	LiveBytes       uint64 // oracle live bytes
}

func (tp *tape) stats() TapeStats {
	return TapeStats{
		Events:          tp.events,
		RetainedObjects: len(tp.sizes),
		RetiredObjects:  tp.retiredOrds,
		RetiredIDSpans:  len(tp.retired),
		Buckets:         len(tp.liveByBirth),
		TrimmedBuckets:  tp.trimmedBuckets,
		LiveBytes:       tp.live,
	}
}

// TapeStats reports the footprint of the fleet's shared tape.
func (f *Fleet) TapeStats() TapeStats { return f.tape.stats() }

// TapeCompaction is the tape's compaction watermark: how far the
// sliding base had advanced after a given number of events. Engine
// checkpoints store it so a resume can verify — bit for bit, spans
// included — that the fleet's tape still matches what the checkpoint
// saw; compaction's event-count cadence makes the watermark a pure
// function of the event stream, so any mismatch means the fleet
// diverged from the checkpoint in between.
type TapeCompaction struct {
	Events          int
	RetiredOrdinals uint64
	BucketBase      uint64
	RetiredIDs      []IDSpan
}

// SnapshotTapeCompaction captures the shared tape's compaction
// watermark. The span slice is copied: the tape keeps merging spans
// in place after the snapshot.
func (f *Fleet) SnapshotTapeCompaction() TapeCompaction {
	tp := f.tape
	spans := make([]IDSpan, len(tp.retired))
	copy(spans, tp.retired)
	return TapeCompaction{
		Events:          tp.events,
		RetiredOrdinals: tp.retiredOrds,
		BucketBase:      tp.bucketBase,
		RetiredIDs:      spans,
	}
}

// RestoreTapeCompaction verifies the fleet's tape against a recorded
// watermark. Retired prefixes cannot be resurrected, so "restore"
// here is verification: the live tape must already match the
// watermark exactly, which holds whenever the fleet has processed
// exactly the watermark's events — compaction is deterministic in the
// event count. A mismatch means the tape is not the one the
// watermark described, and resuming would silently diverge.
func (f *Fleet) RestoreTapeCompaction(w TapeCompaction) error {
	tp := f.tape
	if tp.events != w.Events {
		return fmt.Errorf("sim: tape at event %d cannot restore a compaction watermark taken at event %d", tp.events, w.Events)
	}
	if tp.retiredOrds != w.RetiredOrdinals {
		return fmt.Errorf("sim: tape retired %d ordinals but the watermark recorded %d", tp.retiredOrds, w.RetiredOrdinals)
	}
	if tp.bucketBase != w.BucketBase {
		return fmt.Errorf("sim: tape bucket base %d but the watermark recorded %d", tp.bucketBase, w.BucketBase)
	}
	if len(tp.retired) != len(w.RetiredIDs) {
		return fmt.Errorf("sim: tape holds %d retired ID spans but the watermark recorded %d", len(tp.retired), len(w.RetiredIDs))
	}
	for i, sp := range w.RetiredIDs {
		if tp.retired[i] != sp {
			return fmt.Errorf("sim: retired ID span %d is [%d,%d] but the watermark recorded [%d,%d]", i, tp.retired[i].Lo, tp.retired[i].Hi, sp.Lo, sp.Hi)
		}
	}
	return nil
}
