// Package fcgi is a FastCGI-style record-framed, request-multiplexing
// transport over descriptor pipes. IO-Lite's §5.3 observation is that once
// buffers are immutable aggregates shared across protection domains, the
// CGI worker protocol reduces to reference-passing over a pipe pair — the
// remaining cost is framing, not copying. This package supplies the
// framing: many concurrent requests share ONE pipe pair per worker, with
// BEGIN/PARAMS/STDOUT/END records interleaved on the stream and
// demultiplexed by request id on both ends. A request is a path or
// serialized environment and carries no body, as in the paper's CGI
// experiments; the response streams a document back.
//
// Records carry their payload in one of two modes, chosen per direction
// by the transport that wires the channel (a Conn's WireMode):
//
//   - copy mode: header and payload bytes are serialized into the pipe's
//     kernel FIFO (the conventional FastCGI wire format, one copy in and
//     one copy out per byte);
//   - ref mode: each record travels as a single buffer aggregate — an
//     8-byte header slice generated in place in the sender's pool,
//     followed by the sealed payload aggregate by reference. The pipe
//     passes the aggregate across the domain boundary with persistent
//     read grants, so payload bytes charge zero copy work end to end.
//
// The layers stack as: Conn (record framing over two fds) → Mux
// (request-id multiplexing, bounded depth, a reader proc routing inbound
// records to waiting requests) → WorkerPool (N persistent worker
// processes with per-worker ACL'd pools, M ≫ N in-flight requests).
package fcgi

import (
	"encoding/binary"
	"errors"

	"iolite/internal/core"
)

// RecType names a record's role in the per-request streams.
type RecType uint8

// Record types. A request is BEGIN, then a PARAMS stream; the response is
// a STDOUT stream closed by one END record. Streams are terminated by the
// FlagEndStream bit on their last record rather than by empty marker
// records, halving the record count of the common small request. Type 3
// is unassigned and decodes as ErrProtocol.
const (
	RecBegin  RecType = 1
	RecParams RecType = 2
	RecStdout RecType = 4
	RecEnd    RecType = 5
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecParams:
		return "PARAMS"
	case RecStdout:
		return "STDOUT"
	case RecEnd:
		return "END"
	}
	return "unknown"
}

// valid reports whether t is an assigned record type.
func (t RecType) valid() bool {
	switch t {
	case RecBegin, RecParams, RecStdout, RecEnd:
		return true
	}
	return false
}

// Record flags. Bits 1 and 2 are unassigned and decode as ErrProtocol.
const (
	// FlagEndStream marks the last record of its PARAMS/STDOUT stream.
	FlagEndStream uint8 = 1 << 0
	// FlagTraced marks a record whose header is followed by TraceLen
	// bytes of trace id — how a request's observability span propagates
	// across machines. Untraced records are wire-identical to before the
	// extension existed, so tracing costs nothing when off.
	FlagTraced uint8 = 1 << 3
)

// HeaderLen is the fixed record header size on the wire. A traced
// record (FlagTraced) carries TraceLen extra id bytes after it.
const (
	HeaderLen = 8
	TraceLen  = 4
)

// Header is the fixed-size record header: type, flags, the request id the
// record belongs to, and the payload length.
type Header struct {
	Type  RecType
	Flags uint8
	// ReqID multiplexes requests over one connection. Id 0 is reserved.
	ReqID uint16
	// Length is the payload byte count. END records carry no payload and
	// reuse the field as the application status (FastCGI's appStatus).
	Length uint32
	// Trace, when non-zero, is the request's cross-machine trace id; it
	// rides as a TraceLen extension after the fixed header (FlagTraced).
	Trace uint32
}

// encode writes the header (and trace extension when present) into dst,
// returning the bytes written. dst must have room for HeaderLen bytes, plus
// TraceLen with a trace id.
func (h Header) encode(dst []byte) int {
	flags := h.Flags
	if h.Trace != 0 {
		flags |= FlagTraced
	}
	dst[0] = byte(h.Type)
	dst[1] = flags
	binary.BigEndian.PutUint16(dst[2:], h.ReqID)
	binary.BigEndian.PutUint32(dst[4:], h.Length)
	if h.Trace != 0 {
		binary.BigEndian.PutUint32(dst[HeaderLen:], h.Trace)
		return HeaderLen + TraceLen
	}
	return HeaderLen
}

// parseHeader decodes the fixed header. When FlagTraced is set the
// caller must fetch TraceLen more bytes and feed them to parseTrace.
func parseHeader(b []byte) (Header, error) {
	h := Header{
		Type:   RecType(b[0]),
		Flags:  b[1],
		ReqID:  binary.BigEndian.Uint16(b[2:]),
		Length: binary.BigEndian.Uint32(b[4:]),
	}
	if !h.Type.valid() || h.ReqID == 0 {
		return h, ErrProtocol
	}
	return h, nil
}

// traced reports whether the header announces a trace extension.
func (h Header) traced() bool { return h.Flags&FlagTraced != 0 }

// allowedFlags is the per-type flag whitelist (trace bit excluded — it is
// an encoding concern, stripped before the check). Anything outside it is
// a malformed record: no writer in this package emits it, so a reader
// seeing it is looking at a corrupt or hostile stream.
func allowedFlags(t RecType) uint8 {
	if t == RecBegin {
		return 0
	}
	// END closes the STDOUT stream, so it carries FlagEndStream too.
	return FlagEndStream
}

// DecodeHeader decodes a record header (fixed part plus trace extension,
// when announced) from the front of b, returning the header and the bytes
// consumed. It is the bounds-safe entry every read path funnels through:
// a short buffer reports ErrTruncated (read more and retry), and a header
// with a bad type, reserved request id, or flags its type never carries
// reports ErrProtocol. It never panics or reads past len(b).
func DecodeHeader(b []byte) (Header, int, error) {
	if len(b) < HeaderLen {
		return Header{}, 0, ErrTruncated
	}
	h, err := parseHeader(b[:HeaderLen])
	if err != nil {
		return Header{}, 0, err
	}
	n := HeaderLen
	if h.traced() {
		if len(b) < HeaderLen+TraceLen {
			return Header{}, 0, ErrTruncated
		}
		h.parseTrace(b[HeaderLen:])
		n += TraceLen
	}
	if h.Flags&^allowedFlags(h.Type) != 0 {
		return Header{}, 0, ErrProtocol
	}
	return h, n, nil
}

// DecodeRecord decodes one whole record from the front of b, returning
// the record and the bytes consumed. The payload aliases b (no copy);
// callers that keep the record beyond b's lifetime must copy it. END
// records consume no payload bytes (their Length field is the status).
// ErrTruncated means b ends before the record does.
func DecodeRecord(b []byte) (Record, int, error) {
	h, hlen, err := DecodeHeader(b)
	if err != nil {
		return Record{}, 0, err
	}
	var want int64
	if h.Type != RecEnd {
		want = int64(h.Length)
	}
	if int64(len(b)-hlen) < want {
		return Record{}, 0, ErrTruncated
	}
	rec := Record{Header: h}
	if want > 0 {
		rec.Bytes = b[hlen : hlen+int(want)]
	}
	return rec, hlen + int(want), nil
}

// parseTrace decodes the TraceLen-byte trace extension into h.
func (h *Header) parseTrace(b []byte) {
	h.Trace = binary.BigEndian.Uint32(b)
	h.Flags &^= FlagTraced
}

// Framing errors.
var (
	// ErrProtocol reports a malformed record (bad type, reserved id, or
	// flags the type never carries).
	ErrProtocol = errors.New("fcgi: malformed record")
	// ErrTruncated reports a buffer that ends before the record it starts
	// does: streaming decoders read more and retry, whole-message decoders
	// treat it as a torn record.
	ErrTruncated = errors.New("fcgi: truncated record")
	// ErrBroken reports a connection whose peer is gone: the mux fails
	// every in-flight and future request with it.
	ErrBroken = errors.New("fcgi: connection broken")
	// ErrNotSent wraps a request failure that happened before any record
	// of the request reached the worker — the worker died between routing
	// and dispatch, or while the request waited for a mux slot. The
	// request never executed (not even partially: a worker only
	// dispatches complete requests), so the pool may safely re-route it
	// to another worker.
	ErrNotSent = errors.New("fcgi: request not sent")
	// ErrWorkerDied wraps the failure of a request that was in flight on a
	// worker whose channel broke: the worker may have partially (or even
	// fully) executed it, so only idempotent requests may be replayed.
	// Recovery code branches on errors.Is(err, ErrWorkerDied); the wrapped
	// cause (usually ErrBroken) stays matchable too.
	ErrWorkerDied = errors.New("fcgi: worker died with request in flight")
)

// Record is one framed unit. Exactly one payload representation is
// populated on receipt, matching the channel's wire mode: Agg on an
// aggregate channel (WireRef, WireBoundary; the receiver owns it), Bytes
// on a WireCopy channel. On send the caller may supply either; the Conn
// adapts to its wire mode, charging exactly the copies the adaptation
// performs.
type Record struct {
	Header
	Agg   *core.Agg
	Bytes []byte
}

// payloadLen reports the record's payload size in bytes.
func (r *Record) payloadLen() int {
	if r.Agg != nil {
		return r.Agg.Len()
	}
	return len(r.Bytes)
}

// Release drops the record's payload reference, if any.
func (r *Record) Release() {
	if r.Agg != nil {
		r.Agg.Release()
		r.Agg = nil
	}
}

// payloadBytes materializes the record's payload for callers that need
// contiguous bytes (worker-side params assembly). The CPU cost of the
// examination is the caller's to model, as with Agg.ReadAt.
func (r *Record) payloadBytes() []byte {
	if r.Agg != nil {
		return r.Agg.Materialize()
	}
	return r.Bytes
}
