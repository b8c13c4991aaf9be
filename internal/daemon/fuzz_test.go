package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// FuzzTraceUpload fuzzes the serving boundary's one binary input: the
// bytes POSTed to /v1/traces. The daemon must agree with the strict
// decoder on every stream — whatever it rejects is a 400, and whatever
// it accepts is served under the digest of the decoded events, so a
// trace has one content address however its bytes were spelled.
func FuzzTraceUpload(f *testing.F) {
	var clean bytes.Buffer
	if err := trace.WriteAll(&clean, []trace.Event{
		trace.Alloc(1, 64, 0), trace.PtrWrite(1, 0, 1, 3), trace.Mark("m", 5), trace.Free(1, 9),
	}); err != nil {
		f.Fatal(err)
	}
	magic := clean.Bytes()[:5]
	stream := func(records ...byte) []byte { return append(bytes.Clone(magic), records...) }
	uv := binary.AppendUvarint
	f.Add(clean.Bytes())
	f.Add(clean.Bytes()[:clean.Len()-2]) // torn tail
	f.Add(stream())                      // header only
	f.Add([]byte("garbage"))
	// Non-canonical records: an overlong varint, a clock that wraps
	// past 2^64, a pointer field above uint32.
	f.Add(stream(byte(trace.KindAlloc), 0x01, 0x40, 0x80, 0x00))
	f.Add(uv(append(uv(stream(byte(trace.KindMark), 0x00), 1<<63), byte(trace.KindMark), 0x00), 1<<63+1))
	f.Add(append(uv(stream(byte(trace.KindPtrWrite), 0x01), 1<<32+5), 0x02, 0x00))

	hs := httptest.NewServer(NewServer(Config{Workers: 1}).Handler())
	f.Cleanup(hs.Close)
	c := NewClient(hs.URL)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, derr := trace.NewReader(bytes.NewReader(data)).ReadAll()
		info, err := c.UploadTrace(context.Background(), bytes.NewReader(data))
		if derr != nil {
			var se *StatusError
			if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
				t.Fatalf("strict decode rejects the stream (%v), upload returned %v, want HTTP 400", derr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("strict decode accepts the stream, upload failed: %v", err)
		}
		want, err := trace.DigestEvents(events)
		if err != nil {
			t.Fatalf("decoded events do not re-encode: %v", err)
		}
		if info.Digest != want.String() || info.Events != len(events) {
			t.Fatalf("upload served %d events as %s, want %d events as %s", info.Events, info.Digest, len(events), want)
		}
	})
}
