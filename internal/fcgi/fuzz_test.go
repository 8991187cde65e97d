package fcgi

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord throws arbitrary bytes at the wire decoder. The
// contract under attack: DecodeRecord either returns a well-formed
// record that consumed exactly the bytes it claims, or a typed error
// (ErrTruncated / ErrProtocol) having consumed nothing — it never
// panics, never reads past len(b), and never accepts a header its own
// encoder could not have produced.
func FuzzDecodeRecord(f *testing.F) {
	// Well-formed seeds, one per record shape the writers emit.
	add := func(h Header, payload []byte) {
		buf := make([]byte, HeaderLen+TraceLen+len(payload))
		n := h.encode(buf)
		f.Add(append(buf[:n:n], payload...))
	}
	add(Header{Type: RecBegin, ReqID: 1}, nil)
	add(Header{Type: RecParams, Flags: FlagEndStream, ReqID: 1, Length: 5}, []byte("hello"))
	add(Header{Type: RecStdout, ReqID: 9, Length: 3}, []byte("abc"))
	add(Header{Type: RecStdout, Flags: FlagEndStream, ReqID: 2, Length: 3, Trace: 0xdeadbeef}, []byte("xyz"))
	add(Header{Type: RecEnd, Flags: FlagEndStream, ReqID: 1, Length: 7}, nil)
	// Malformed seeds: truncations, bogus flags, bad type, reserved id.
	f.Add([]byte("\x01\x06\x00"))
	f.Add([]byte("\x04\x01\x00\x01\x00\x00\x00\xffab"))
	f.Add([]byte("\x01\x01\x00\x01\x00\x00\x00\x00"))
	f.Add([]byte("\x09\x00\x00\x01\x00\x00\x00\x00"))
	f.Add([]byte("\x02\x01\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x04\x09\x00\x02\x00\x00\x00\x00\xde\xad"))

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes, want 0", err, n)
			}
			return
		}
		if n < HeaderLen || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		h := rec.Header
		if !h.Type.valid() {
			t.Fatalf("accepted bad type %d", h.Type)
		}
		if h.ReqID == 0 {
			t.Fatal("accepted reserved request id 0")
		}
		if h.Flags&^allowedFlags(h.Type) != 0 {
			t.Fatalf("accepted flags %#x on %v", h.Flags, h.Type)
		}
		want := 0
		if h.Type != RecEnd {
			want = int(h.Length)
		}
		if len(rec.Bytes) != want {
			t.Fatalf("payload %d bytes, header says %d", len(rec.Bytes), want)
		}
		// The payload must alias exactly the bytes after the header.
		if want > 0 && !bytes.Equal(rec.Bytes, b[n-want:n]) {
			t.Fatal("payload does not match wire bytes")
		}
		// Re-encode round-trip: every accepted header is one the package's
		// own writer would produce, byte for byte.
		var enc [HeaderLen + TraceLen]byte
		el := h.encode(enc[:])
		h2, n2, err2 := DecodeHeader(enc[:el])
		if err2 != nil || n2 != el || h2 != h {
			t.Fatalf("round-trip mismatch: %+v/%d/%v vs %+v/%d", h2, n2, err2, h, el)
		}
		// Chopping any byte off a complete record must yield ErrTruncated,
		// never a shorter successful parse.
		if _, pn, perr := DecodeRecord(b[:n-1]); !errors.Is(perr, ErrTruncated) || pn != 0 {
			t.Fatalf("prefix decode: n=%d err=%v, want ErrTruncated", pn, perr)
		}
	})
}

// TestDecodeRejectsUnassignedWire pins the wire values: BEGIN 1, PARAMS 2,
// STDOUT 4, END 5, FlagEndStream and FlagTraced keep their values, and
// type 3 and flag bits 1 and 2 are unassigned, so a record carrying them
// is malformed.
func TestDecodeRejectsUnassignedWire(t *testing.T) {
	if RecBegin != 1 || RecParams != 2 || RecStdout != 4 || RecEnd != 5 ||
		FlagEndStream != 1<<0 || FlagTraced != 1<<3 {
		t.Fatal("a record type or flag changed its wire value")
	}
	for _, b := range []string{
		"\x03\x01\x00\x01\x00\x00\x00\x00", // type 3
		"\x01\x02\x00\x01\x00\x00\x00\x00", // BEGIN with flag bit 1
		"\x01\x04\x00\x01\x00\x00\x00\x00", // BEGIN with flag bit 2
		"\x02\x03\x00\x01\x00\x00\x00\x00", // PARAMS with flag bit 1
	} {
		if _, n, err := DecodeRecord([]byte(b)); !errors.Is(err, ErrProtocol) || n != 0 {
			t.Errorf("DecodeRecord(%q) = %d, %v; want ErrProtocol", b, n, err)
		}
	}
}
