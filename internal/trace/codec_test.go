package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

func sampleTrace() []Event {
	return []Event{
		Alloc(1, 128, 0),
		Alloc(2, 64, 15),
		PtrWrite(1, 0, 2, 20),
		Mark("phase one", 25),
		Free(1, 40),
		PtrWrite(2, 3, NilObject, 41),
		Alloc(3, 1<<20, 1<<40),
		Free(3, 1<<40+5),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, events)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded to %d events", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("not a trace at all")).ReadAll()
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected bad-magic error, got %v", err)
	}
}

func TestBinaryTruncatedHeader(t *testing.T) {
	_, err := NewReader(strings.NewReader("DT")).ReadAll()
	if err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestBinaryTruncatedEvent(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop a few bytes off the end: decoding must fail, not hang or
	// silently succeed with a short read mid-event.
	truncated := full[:len(full)-2]
	_, err := NewReader(bytes.NewReader(truncated)).ReadAll()
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if err == io.EOF {
		t.Fatal("truncation reported as clean EOF")
	}
}

func TestBinaryWriterRejectsClockRegression(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Alloc(1, 8, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Alloc(2, 8, 50)); err == nil {
		t.Fatal("writer accepted clock regression")
	}
}

func TestBinaryWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, e := range sampleTrace() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		if w.Count() != i+1 {
			t.Fatalf("Count = %d after %d writes", w.Count(), i+1)
		}
	}
}

func TestBinaryRejectsUnknownKindOnWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(Event{Kind: Kind(200)}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

func TestBinaryRejectsUnknownKindOnRead(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic)
	buf.WriteByte(200)
	_, err := NewReader(&buf).ReadAll()
	if err == nil {
		t.Fatal("unknown kind byte decoded")
	}
}

func TestBinaryMarkLabelLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic)
	buf.WriteByte(byte(KindMark))
	// Claim a 1 GB label without providing it.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	_, err := NewReader(&buf).ReadAll()
	if err == nil {
		t.Fatal("absurd label length accepted")
	}
}

func TestBinaryRoundTripRandomTraces(t *testing.T) {
	// Property: encode→decode is the identity on any well-formed trace.
	r := xrand.New(2024)
	check := func(seed uint32) bool {
		rr := xrand.New(uint64(seed) ^ r.Uint64())
		b := NewBuilder()
		var liveList []ObjectID
		for i := 0; i < 200; i++ {
			b.Advance(uint64(rr.Intn(1000)))
			switch {
			case len(liveList) > 0 && rr.Bool(0.3):
				k := rr.Intn(len(liveList))
				b.Free(liveList[k])
				liveList = append(liveList[:k], liveList[k+1:]...)
			case len(liveList) > 1 && rr.Bool(0.2):
				b.PtrWrite(liveList[rr.Intn(len(liveList))], uint32(rr.Intn(8)), liveList[rr.Intn(len(liveList))])
			case rr.Bool(0.05):
				b.Mark("m")
			default:
				liveList = append(liveList, b.Alloc(uint64(rr.Range(1, 4096))))
			}
		}
		events := b.Events()
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, events)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("text round trip mismatch:\n got %v\nwant %v", got, events)
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
a 1 100 0

f 1 10
`
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{Alloc(1, 100, 0), Free(1, 10)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTextMarkWithSpacesAndQuotes(t *testing.T) {
	events := []Event{Mark(`hello "quoted" world`, 5)}
	var buf bytes.Buffer
	if err := WriteText(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("got %v, want %v", got, events)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"z 1 2 3",       // unknown mnemonic
		"a 1",           // missing fields
		"a x 2 3",       // non-numeric
		"p 1 2 3",       // ptr write missing instr
		`m hello 5`,     // unquoted label
		`m "unclosed`,   // unterminated label
		`m "ok" notnum`, // bad timestamp
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) accepted malformed input", in)
		}
	}
}

func TestTextLineNumbersInErrors(t *testing.T) {
	_, err := ReadText(strings.NewReader("a 1 8 0\nbogus line\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should cite line 2, got %v", err)
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	builder := NewBuilder()
	for i := 0; i < 10000; i++ {
		builder.Advance(50)
		id := builder.Alloc(64)
		if i%2 == 0 {
			builder.Free(id)
		}
	}
	events := builder.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteAll(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	builder := NewBuilder()
	for i := 0; i < 10000; i++ {
		builder.Advance(50)
		id := builder.Alloc(64)
		if i%2 == 0 {
			builder.Free(id)
		}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, builder.Events()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewReader(bytes.NewReader(data)).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadBatchMatchesRead pins ReadBatch to the sequential Read path:
// for every batch size, including 1 and larger than the trace, the
// concatenated batches must equal the event-at-a-time decode, a short
// final batch must carry a nil error, and the call after the clean end
// must return (0, io.EOF).
func TestReadBatchMatchesRead(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, size := range []int{1, 2, 3, len(events), len(events) + 5} {
		r := NewReader(bytes.NewReader(encoded))
		dst := make([]Event, size)
		var got []Event
		for {
			n, err := r.ReadBatch(dst)
			if err == io.EOF {
				if n != 0 {
					t.Fatalf("size %d: io.EOF with %d events — EOF must come alone", size, n)
				}
				break
			}
			if err != nil {
				t.Fatalf("size %d: ReadBatch: %v", size, err)
			}
			if n == 0 {
				t.Fatalf("size %d: ReadBatch returned 0 events with nil error", size)
			}
			got = append(got, dst[:n]...)
			if n < size {
				// Short batch: the stream ended cleanly mid-batch, so the
				// next call must report the EOF on its own.
				if n2, err2 := r.ReadBatch(dst); n2 != 0 || err2 != io.EOF {
					t.Fatalf("size %d: call after short batch = (%d, %v), want (0, io.EOF)", size, n2, err2)
				}
				break
			}
		}
		if !reflect.DeepEqual(got, events) {
			t.Errorf("size %d: ReadBatch decode differs from Read decode:\n got %v\nwant %v", size, got, events)
		}
	}
}

// TestReadBatchTruncatedStream: a decode error mid-batch must return
// the successfully decoded prefix alongside the error.
func TestReadBatchTruncatedStream(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-1]

	r := NewReader(bytes.NewReader(truncated))
	dst := make([]Event, len(events)+1)
	n, err := r.ReadBatch(dst)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream decoded without error (n=%d, err=%v)", n, err)
	}
	if n == 0 || n >= len(events) {
		t.Fatalf("truncated stream returned %d events, want a non-empty strict prefix of %d", n, len(events))
	}
	if !reflect.DeepEqual(dst[:n], events[:n]) {
		t.Errorf("prefix before the decode error differs from the original events")
	}
}

// TestReadBatchEmptyTrace: a header-only stream is a clean EOF.
func TestReadBatchEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	n, err := r.ReadBatch(make([]Event, 4))
	if n != 0 || err != io.EOF {
		t.Fatalf("empty trace ReadBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// nonCanonicalStreams are well-headed streams no Writer produces, one
// per way a record can be malformed without being truncated or of an
// unknown kind. A decoder that accepts them breaks the codec's
// one-encoding-per-event rule: each decodes (or used to) to events
// whose re-encoding differs from the input.
func nonCanonicalStreams() []struct {
	name string
	data []byte
} {
	stream := func(records ...[]byte) []byte {
		return slices.Concat(append([][]byte{binaryMagic}, records...)...)
	}
	uv := binary.AppendUvarint
	return []struct {
		name string
		data []byte
	}{
		// Alloc(1, 64, 0) with its clock delta 0 spelled 80 00.
		{"overlong varint", stream([]byte{byte(KindAlloc), 0x01, 0x40, 0x80, 0x00})},
		// Two marks whose deltas sum past 2^64: the clock would wrap
		// from 2^63 back to 1.
		{"clock wraps", stream(
			uv([]byte{byte(KindMark), 0x00}, 1<<63),
			uv([]byte{byte(KindMark), 0x00}, 1<<63+1))},
		// A pointer store into field 2^32+5, which Event.Field would
		// truncate to 5.
		{"field exceeds uint32", stream(
			append(uv([]byte{byte(KindPtrWrite), 0x01}, 1<<32+5), 0x02, 0x00))},
	}
}

// TestDecoderRejectsNonCanonical: each non-canonical record is a
// decode error for the strict mode and a corrupt record for the
// recovering one.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	for _, nc := range nonCanonicalStreams() {
		if events, err := NewReader(bytes.NewReader(nc.data)).ReadAll(); err == nil {
			t.Errorf("%s: strict decode accepted it as %v", nc.name, events)
		}
		rr := NewRecoveringReader(bytes.NewReader(nc.data))
		if _, err := rr.ReadAll(); err != nil {
			t.Fatalf("%s: recovery failed: %v", nc.name, err)
		}
		if rr.Drops().CorruptRecords == 0 {
			t.Errorf("%s: recovery counted no corrupt record: %+v", nc.name, rr.Drops())
		}
	}
}

// errAfterReader returns the first n bytes of data and err with the
// last of them, the (n > 0, err) shape io.Reader allows.
type errAfterReader struct {
	data []byte
	n    int
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data, r.n = r.data[k:], r.n-k
	if r.n == 0 {
		return k, r.err
	}
	return k, nil
}

// TestStrictErrorContract pins the strict decoder's errors at every
// cut point of a stream: a cut inside the header is ErrBadMagic, a cut
// inside a record is io.ErrUnexpectedEOF, a cut between records is a
// clean end with the prefix decoded, and a read error anywhere
// surfaces through ReadAll unchanged, after every record the bytes
// before it complete. Reads are one byte at a time too, so every
// record straddles a buffer boundary.
func TestStrictErrorContract(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// complete[off] counts the events whose records end at or before
	// byte off; boundary[off] says a record (or the header) ends there.
	complete := make([]int, len(data)+1)
	boundary := map[int]bool{}
	for i, off := range recordOffsets(t, events) {
		boundary[off] = true
		for ; off <= len(data); off++ {
			complete[off] = i
		}
	}
	errRead := errors.New("injected read error")
	for cut := 0; cut <= len(data); cut++ {
		got, err := NewReader(iotest.OneByteReader(bytes.NewReader(data[:cut]))).ReadAll()
		k := complete[cut]
		switch {
		case cut < len(binaryMagic):
			if !errors.Is(err, ErrBadMagic) {
				t.Errorf("cut %d inside the header: %v, want ErrBadMagic", cut, err)
			}
		case boundary[cut]:
			if err != nil || !slices.Equal(got, events[:k]) {
				t.Errorf("cut %d between records: %d events, %v; want the first %d", cut, len(got), err, k)
			}
		default:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("cut %d inside a record: %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
		if cut < len(data) {
			got, err := NewReader(&errAfterReader{data: data, n: cut, err: errRead}).ReadAll()
			if !errors.Is(err, errRead) {
				t.Errorf("read error after %d bytes: ReadAll returned %v", cut, err)
			}
			if cut > len(binaryMagic) && !slices.Equal(got, events[:k]) {
				t.Errorf("read error after %d bytes: decoded %d events first, want %d", cut, len(got), k)
			}
		}
	}
	// A damaged magic byte is ErrBadMagic in both modes.
	bad := slices.Clone(data)
	bad[2] ^= 0xFF
	for _, rd := range []*Reader{NewReader(bytes.NewReader(bad)), NewRecoveringReader(bytes.NewReader(bad))} {
		if _, err := rd.ReadAll(); !errors.Is(err, ErrBadMagic) {
			t.Errorf("damaged magic: %v, want ErrBadMagic", err)
		}
	}
}

// TestLongMarkLabelOutgrowsWindow: a record longer than the decoder's
// read window grows the buffer instead of being taken for a torn one.
func TestLongMarkLabelOutgrowsWindow(t *testing.T) {
	events := []Event{Alloc(1, 8, 0), Mark(strings.Repeat("x", 3*readChunk+17), 4), Free(1, 9)}
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil || !slices.Equal(got, events) {
		t.Fatalf("long label: %d events, %v", len(got), err)
	}
}
