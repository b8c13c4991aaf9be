package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Binary format
//
//	header:  magic "DTBT" + version byte 0x01
//	event:   kind byte, then kind-specific uvarint fields:
//	         alloc:    id, size, dInstr
//	         free:     id, dInstr
//	         ptrwrite: id, field, target, dInstr
//	         mark:     len(label), label bytes, dInstr
//
// Instruction timestamps are delta-encoded (dInstr = instr - previous
// instr), which keeps long traces compact since most deltas are tiny.

var binaryMagic = []byte{'D', 'T', 'B', 'T', 0x01}

// ErrBadMagic reports a stream that is not a binary DTB trace.
var ErrBadMagic = errors.New("trace: bad magic, not a binary DTB trace")

// Writer encodes events to the binary format.
type Writer struct {
	w         *bufio.Writer
	buf       [binary.MaxVarintLen64]byte
	lastInstr uint64
	wroteHdr  bool
	n         int
}

// NewWriter returns a Writer emitting to w. The header is written
// lazily on the first event (or by Flush on an empty trace).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) header() error {
	if w.wroteHdr {
		return nil
	}
	w.wroteHdr = true
	_, err := w.w.Write(binaryMagic)
	return err
}

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write encodes one event.
func (w *Writer) Write(e Event) error {
	if err := w.header(); err != nil {
		return err
	}
	if e.Instr < w.lastInstr {
		return fmt.Errorf("trace: Writer clock regressed %d -> %d", w.lastInstr, e.Instr)
	}
	d := e.Instr - w.lastInstr
	w.lastInstr = e.Instr
	if err := w.w.WriteByte(byte(e.Kind)); err != nil {
		return err
	}
	switch e.Kind {
	case KindAlloc:
		if err := w.uvarint(uint64(e.ID)); err != nil {
			return err
		}
		if err := w.uvarint(e.Size); err != nil {
			return err
		}
	case KindFree:
		if err := w.uvarint(uint64(e.ID)); err != nil {
			return err
		}
	case KindPtrWrite:
		if err := w.uvarint(uint64(e.ID)); err != nil {
			return err
		}
		if err := w.uvarint(uint64(e.Field)); err != nil {
			return err
		}
		if err := w.uvarint(uint64(e.Target)); err != nil {
			return err
		}
	case KindMark:
		if err := w.uvarint(uint64(len(e.Label))); err != nil {
			return err
		}
		if _, err := w.w.WriteString(e.Label); err != nil {
			return err
		}
	default:
		return fmt.Errorf("trace: cannot encode unknown kind %d", e.Kind)
	}
	w.n++
	return w.uvarint(d)
}

// Count returns the number of events written so far.
func (w *Writer) Count() int { return w.n }

// Flush writes any buffered data (and the header, if no event was
// ever written) to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader decodes events from the binary format. Both constructors
// return one: the record decoder is shared, and only the error policy
// differs. A strict Reader (NewReader) stops at the first corrupt
// record with its decode error and reports a stream that ends inside a
// record as io.ErrUnexpectedEOF. A recovering Reader
// (NewRecoveringReader) resyncs past corrupt records and absorbs a
// torn tail, accounting for both in Drops (see recover.go). The header
// is strict in both modes.
type Reader struct {
	r          io.Reader
	buf        []byte
	start, end int // the undecoded window within buf
	eof        bool
	readHdr    bool
	recovering bool
	lastInstr  uint64
	drops      DropStats
	inSkip     bool  // mid resync-episode
	readErr    error // a read error that arrived with data, held until that data is decoded
}

// NewReader returns a strict Reader decoding from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// NewRecoveringReader returns a recovery-mode Reader decoding from r.
// Use it where a partial answer over a damaged capture beats no answer
// — and always surface Drops; the strict NewReader remains the default
// for data whose integrity matters.
func NewRecoveringReader(r io.Reader) *Reader {
	return &Reader{r: r, recovering: true}
}

// readChunk is the decode window's initial size and so the usual size
// of one read: a few hundred records per read call, and little memory
// per open decoder (the daemon holds one per upload in flight).
const readChunk = 4096

// fill reads more input into the window, setting eof at stream end.
// A read error that comes with data is returned by the next fill, so
// the records that data completes decode first, as io.Reader asks.
func (r *Reader) fill() error {
	if err := r.readErr; err != nil {
		r.readErr = nil
		return err
	}
	// Compact before reading: keep the window at the buffer's front.
	if r.start > 0 {
		r.end = copy(r.buf, r.buf[r.start:r.end])
		r.start = 0
	}
	// Grow only when one record outgrows the buffer (a long mark
	// label); otherwise the buffer is reused for the whole stream.
	if r.end == len(r.buf) {
		r.buf = append(r.buf, make([]byte, max(readChunk, len(r.buf)))...)
	}
	n, err := r.r.Read(r.buf[r.end:])
	r.end += n
	switch {
	case err == io.EOF:
		r.eof = true
	case err != nil && n > 0:
		r.readErr = err
	case err != nil:
		return err
	}
	return nil
}

// window returns the undecoded bytes currently buffered.
func (r *Reader) window() []byte { return r.buf[r.start:r.end] }

// header consumes and verifies the magic.
func (r *Reader) header() error {
	for r.end-r.start < len(binaryMagic) && !r.eof {
		if err := r.fill(); err != nil {
			return err
		}
	}
	if r.end-r.start < len(binaryMagic) {
		return fmt.Errorf("%w: truncated header", ErrBadMagic)
	}
	if !bytes.Equal(r.window()[:len(binaryMagic)], binaryMagic) {
		return ErrBadMagic
	}
	r.start += len(binaryMagic)
	r.readHdr = true
	return nil
}

// Read decodes the next event. It returns io.EOF at a clean end of
// stream; for a recovering Reader, Drops is final by then. A strict
// Reader returns any decode error. A recovering Reader absorbs damaged
// content, so its only errors are a damaged header and real I/O
// failures from the underlying reader.
func (r *Reader) Read() (Event, error) {
	if !r.readHdr {
		if err := r.header(); err != nil {
			return Event{}, err
		}
	}
	for {
		e, n, err := decodeRecord(r.window(), r.lastInstr)
		switch {
		case err == nil:
			r.closeEpisode()
			r.start += n
			r.lastInstr = e.Instr
			return e, nil
		case err == errShortRecord:
			if !r.eof {
				if err := r.fill(); err != nil {
					return Event{}, err
				}
				continue
			}
			if r.start < r.end {
				// The stream ended inside a record.
				if !r.recovering {
					return Event{}, io.ErrUnexpectedEOF
				}
				if r.dropTail() {
					continue
				}
			}
			r.closeEpisode()
			return Event{}, io.EOF
		case r.recovering:
			r.skipByte()
		default:
			return Event{}, err
		}
	}
}

// ReadBatch decodes up to len(dst) events into dst and returns how
// many it filled. A short count with a nil error means the stream
// ended cleanly mid-batch; the next call returns (0, io.EOF). On a
// decode error the events before the failure are returned alongside
// it. One ReadBatch call amortizes the per-event decoder-call overhead
// of a replay loop across the whole batch, which is why the batched
// replay engine feeds from it.
//
//dtbvet:hotpath one call per replay batch, decoding the whole frame
func (r *Reader) ReadBatch(dst []Event) (int, error) {
	for n := range dst {
		e, err := r.Read()
		if err == io.EOF && n > 0 {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		dst[n] = e
	}
	return len(dst), nil
}

// ReadAll decodes the remainder of the stream.
func (r *Reader) ReadAll() ([]Event, error) {
	var events []Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}

// The decode errors that need no formatting: sentinels keep a resync
// over garbage free of per-attempt allocation.
var (
	// errShortRecord says the buffer ended before the record did; with
	// more input it might still decode.
	errShortRecord    = errors.New("trace: record extends past available bytes")
	errVarintOverflow = errors.New("trace: varint overflows uint64")
	errNonCanonical   = errors.New("trace: non-canonical varint (overlong encoding)")
	errClockOverflow  = errors.New("trace: instruction clock overflows uint64")
)

// uvarintAt decodes a uvarint from b, distinguishing "need more bytes"
// from "corrupt encoding". Only the canonical (shortest) encoding of a
// value is accepted, so every event has exactly one encoding and a
// decoded stream re-encodes to its own bytes.
func uvarintAt(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n > 1 && b[n-1] == 0:
		return 0, 0, errNonCanonical
	case n > 0:
		return v, n, nil
	case n < 0:
		return 0, 0, errVarintOverflow
	}
	return 0, 0, errShortRecord
}

// decodeRecord is the binary format's one record decoder. It decodes
// one event record from the start of b, given the previous record's
// instruction clock, and returns the event, the record's encoded
// length, and nil; errShortRecord when b is a proper prefix of a
// possibly-valid record; or a descriptive error when the bytes cannot
// begin a record. Every error but errShortRecord is decided by the
// bytes seen so far, so the outcome never depends on how the stream
// was cut into reads.
func decodeRecord(b []byte, lastInstr uint64) (Event, int, error) {
	if len(b) == 0 {
		return Event{}, 0, errShortRecord
	}
	e := Event{Kind: Kind(b[0])}
	pos := 1
	uv := func() (uint64, error) {
		v, n, err := uvarintAt(b[pos:])
		pos += n
		return v, err
	}
	switch e.Kind {
	case KindAlloc:
		id, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		size, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		e.ID, e.Size = ObjectID(id), size
	case KindFree:
		id, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		e.ID = ObjectID(id)
	case KindPtrWrite:
		id, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		field, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		if field > math.MaxUint32 {
			return Event{}, 0, fmt.Errorf("trace: pointer field %d exceeds uint32", field)
		}
		target, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		e.ID, e.Field, e.Target = ObjectID(id), uint32(field), ObjectID(target)
	case KindMark:
		n, err := uv()
		if err != nil {
			return Event{}, 0, err
		}
		const maxLabel = 1 << 20
		if n > maxLabel {
			return Event{}, 0, fmt.Errorf("trace: mark label length %d exceeds limit", n)
		}
		if uint64(len(b)-pos) < n {
			return Event{}, 0, errShortRecord
		}
		e.Label = string(b[pos : pos+int(n)])
		pos += int(n)
	default:
		return Event{}, 0, fmt.Errorf("trace: unknown event kind byte %d", b[0])
	}
	d, err := uv()
	if err != nil {
		return Event{}, 0, err
	}
	e.Instr = lastInstr + d
	if e.Instr < lastInstr {
		return Event{}, 0, errClockOverflow
	}
	return e, pos, nil
}

// WriteAll encodes a whole trace to w in the binary format.
func WriteAll(w io.Writer, events []Event) error {
	tw := NewWriter(w)
	for i, e := range events {
		if err := tw.Write(e); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return tw.Flush()
}

// Text format: one event per line using Event.String mnemonics, with
// '#' comments and blank lines ignored. Intended for hand-written test
// fixtures and human inspection of small traces.

// WriteText encodes a trace in the line-oriented text format.
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the line-oriented text format.
func ReadText(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseTextLine(line)
		if err != nil {
			return events, fmt.Errorf("line %d: %w", lineno, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	return events, nil
}

func parseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	u := func(i int) (uint64, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("missing field %d in %q", i, line)
		}
		return strconv.ParseUint(fields[i], 10, 64)
	}
	switch fields[0] {
	case "a":
		id, err := u(1)
		if err != nil {
			return Event{}, err
		}
		size, err := u(2)
		if err != nil {
			return Event{}, err
		}
		instr, err := u(3)
		if err != nil {
			return Event{}, err
		}
		return Alloc(ObjectID(id), size, instr), nil
	case "f":
		id, err := u(1)
		if err != nil {
			return Event{}, err
		}
		instr, err := u(2)
		if err != nil {
			return Event{}, err
		}
		return Free(ObjectID(id), instr), nil
	case "p":
		src, err := u(1)
		if err != nil {
			return Event{}, err
		}
		field, err := u(2)
		if err != nil {
			return Event{}, err
		}
		dst, err := u(3)
		if err != nil {
			return Event{}, err
		}
		instr, err := u(4)
		if err != nil {
			return Event{}, err
		}
		return PtrWrite(ObjectID(src), uint32(field), ObjectID(dst), instr), nil
	case "m":
		// m "label" instr — label is a Go-quoted string.
		rest := strings.TrimSpace(strings.TrimPrefix(line, "m"))
		if !strings.HasPrefix(rest, `"`) {
			return Event{}, fmt.Errorf("mark label must be quoted in %q", line)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '"' && rest[i-1] != '\\' {
				end = i
				break
			}
		}
		if end < 0 {
			return Event{}, fmt.Errorf("unterminated mark label in %q", line)
		}
		label, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return Event{}, fmt.Errorf("bad mark label in %q: %v", line, err)
		}
		instr, err := strconv.ParseUint(strings.TrimSpace(rest[end+1:]), 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad mark timestamp in %q: %v", line, err)
		}
		return Mark(label, instr), nil
	default:
		return Event{}, fmt.Errorf("unknown event mnemonic %q", fields[0])
	}
}
