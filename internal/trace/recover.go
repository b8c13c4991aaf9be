package trace

import "fmt"

// Recovery mode for the binary codec: a Reader made by
// NewRecoveringReader runs the strict Reader's record decoder but
// decodes as much of a damaged stream as it can instead of stopping at
// the first bad byte, and accounts for every byte it gives up on. Two
// things are non-negotiable:
//
//   - Exact accounting. Every input byte after the header is either
//     part of a decoded record or counted in DropStats.BytesDropped —
//     nothing is skipped silently. Drops are typed: a resync episode
//     past corrupt bytes is a CorruptRecords count, a stream that ends
//     inside a record is a TornTail.
//   - Guaranteed progress. Resync advances at least one byte per
//     failed attempt, so decoding any stream terminates in at most
//     len(stream) attempts — recovery can be slow on garbage, never
//     stuck.
//
// The header stays strict: a stream whose magic is damaged is not a
// trace, and "recovering" it would fabricate data from noise.
//
// Recovery is best effort by nature — resyncing into the middle of a
// record can decode byte salad as a plausible event — but whatever it
// returns is a well-formed trace (monotone clock, known kinds,
// canonical encoding), and the drop accounting tells the consumer
// exactly how much of the stream it rests on.

// DropStats counts what recovery discarded. The zero value means the
// stream decoded completely.
type DropStats struct {
	// CorruptRecords counts resync episodes: maximal contiguous byte
	// spans abandoned after a record failed to decode. One corrupted
	// record usually costs one episode; the count is of episodes, not
	// of original records destroyed (which the stream no longer says).
	CorruptRecords int
	// TornTail is 1 when the stream ended partway through a record (a
	// truncated file tail), else 0.
	TornTail int
	// BytesDropped is the total encoded bytes skipped across both
	// kinds. It is exact: header and decoded records account for every
	// other byte of the input.
	BytesDropped uint64
}

// Any reports whether anything was dropped.
func (d DropStats) Any() bool { return d.CorruptRecords > 0 || d.TornTail > 0 }

// Add accumulates another reader's drops (e.g. across a resumed
// replay's reopened streams).
func (d *DropStats) Add(o DropStats) {
	d.CorruptRecords += o.CorruptRecords
	d.TornTail += o.TornTail
	d.BytesDropped += o.BytesDropped
}

// String renders the accounting for logs: "2 corrupt record span(s),
// torn tail, 37 byte(s) dropped".
func (d DropStats) String() string {
	if !d.Any() {
		return "no drops"
	}
	s := ""
	if d.CorruptRecords > 0 {
		s += fmt.Sprintf("%d corrupt record span(s)", d.CorruptRecords)
	}
	if d.TornTail > 0 {
		if s != "" {
			s += ", "
		}
		s += "torn tail"
	}
	return fmt.Sprintf("%s, %d byte(s) dropped", s, d.BytesDropped)
}

// skipByte abandons one window byte as part of a resync episode.
func (r *Reader) skipByte() {
	r.inSkip = true
	r.drops.BytesDropped++
	r.start++
}

// closeEpisode ends a resync episode, if one is open.
func (r *Reader) closeEpisode() {
	if r.inSkip {
		r.inSkip = false
		r.drops.CorruptRecords++
	}
}

// dropTail handles a stream that ended inside a record. Mid resync it
// abandons one more byte and reports true: a shorter record might
// still decode from a later start. Otherwise the rest of the window is
// the torn tail, dropped in one accounted bite.
func (r *Reader) dropTail() bool {
	if r.inSkip {
		r.skipByte()
		return true
	}
	r.drops.TornTail++
	r.drops.BytesDropped += uint64(r.end - r.start)
	r.start = r.end
	return false
}

// Drops returns a recovering Reader's accounting so far; final once
// Read has returned io.EOF. A strict Reader never drops anything.
func (r *Reader) Drops() DropStats { return r.drops }
