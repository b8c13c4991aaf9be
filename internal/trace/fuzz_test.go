package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadText: the text parser must never panic and must only accept
// lines it can re-serialize.
func FuzzReadText(f *testing.F) {
	f.Add("a 1 100 0\nf 1 10\n")
	f.Add("p 1 0 2 5\nm \"label\" 6\n")
	f.Add("# comment\n\n a 2 8 1")
	f.Add(`m "esc\"aped" 9`)
	f.Add("a 99999999999999999999 1 1") // overflow
	f.Add("m \"unterminated")
	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadText(bytes.NewReader([]byte(input)))
		if err != nil {
			return
		}
		// Accepted input must round-trip.
		var buf bytes.Buffer
		if err := WriteText(&buf, events); err != nil {
			t.Fatalf("accepted events failed to serialize: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("serialized form failed to parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count %d -> %d", len(events), len(again))
		}
	})
}

// FuzzReader: the binary decoder must never panic or over-allocate on
// corrupt streams, and must accept only canonical encodings: a cleanly
// decoded stream re-encodes to exactly its own bytes, which is what
// makes a trace's digest independent of the route its events took.
func FuzzReader(f *testing.F) {
	good := func(events []Event) []byte {
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(good(nil))
	f.Add(good([]Event{Alloc(1, 64, 0), Free(1, 5)}))
	f.Add(good([]Event{Mark("m", 1), PtrWrite(1, 2, 3, 4)}))
	f.Add([]byte("DTBT\x01\xff\xff\xff"))
	f.Add([]byte("garbage"))
	for _, nc := range nonCanonicalStreams() {
		f.Add(nc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			t.Fatalf("decoded events failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decoded stream re-encodes to different bytes:\n  in %x\n out %x", data, buf.Bytes())
		}
	})
}

// FuzzRecoveringReader: recovery must terminate on any input (resync
// advances at least one byte per attempt), keep its drop accounting
// exact, salvage only well-formed traces, and agree with the strict
// decoder wherever that one succeeds.
func FuzzRecoveringReader(f *testing.F) {
	good := func(events []Event) []byte {
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	clean := good([]Event{Alloc(1, 64, 0), PtrWrite(1, 0, 2, 3), Mark("m", 5), Free(1, 9)})
	f.Add(clean)
	f.Add(clean[:len(clean)-2])                      // torn tail
	f.Add(append(clean[:8], clean[10:]...))          // bytes cut mid-stream
	f.Add(append(good(nil), 0xFF, 0xFF, 0x01, 0x02)) // garbage body
	f.Add([]byte("DTBT\x01"))                        // header only
	f.Add([]byte("garbage"))                         // damaged header
	for _, nc := range nonCanonicalStreams() {
		f.Add(nc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecoveringReader(bytes.NewReader(data))
		events, err := rr.ReadAll()
		if err != nil {
			// Only the strict header check may fail on an in-memory
			// stream; content damage must always be recovered past.
			if len(data) >= len(binaryMagic) && bytes.Equal(data[:len(binaryMagic)], binaryMagic) {
				t.Fatalf("recovery failed on a well-headed stream: %v", err)
			}
			return
		}
		drops := rr.Drops()
		// The accounting invariants the audit layer relies on.
		if (drops.BytesDropped > 0) != drops.Any() {
			t.Fatalf("inconsistent accounting: %+v", drops)
		}
		if drops.TornTail > 1 {
			t.Fatalf("stream ended %d times: %+v", drops.TornTail, drops)
		}
		if body := uint64(len(data) - len(binaryMagic)); drops.BytesDropped > body {
			t.Fatalf("dropped %d bytes from a %d-byte body", drops.BytesDropped, body)
		}
		// Both modes share one record decoder: on a stream the strict
		// mode accepts, recovery has nothing to do.
		if strict, err := NewReader(bytes.NewReader(data)).ReadAll(); err == nil {
			if drops.Any() {
				t.Fatalf("strict decode succeeded but recovery dropped: %+v", drops)
			}
			if !slices.Equal(strict, events) {
				t.Fatalf("recovered events differ from the strict decode:\n got %v\nwant %v", events, strict)
			}
		}
		// The clock is monotone even across resync gaps.
		for i := 1; i < len(events); i++ {
			if events[i].Instr < events[i-1].Instr {
				t.Fatalf("clock regressed at %d: %d -> %d", i, events[i-1].Instr, events[i].Instr)
			}
		}
		// Whatever was salvaged re-encodes canonically: encode once,
		// strict-decode, and get the identical events back.
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			t.Fatalf("recovered events failed to re-encode: %v", err)
		}
		again, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("re-encoded stream failed strict decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encode changed event count %d -> %d", len(events), len(again))
		}
		for i := range again {
			if again[i] != events[i] {
				t.Fatalf("re-encode changed event %d: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}
