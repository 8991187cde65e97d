package fcgi

import (
	"iolite/internal/core"
	"iolite/internal/sim"
)

// MaxPayload caps one copy-mode STDOUT record's payload. Reference-mode
// records carry whole aggregates — the pipe passes them atomically
// whatever their size — but serialized payloads are chunked so that large
// responses interleave with other requests' records instead of
// monopolizing the FIFO.
const MaxPayload = 32 << 10

// ServerRequest is one demultiplexed request as the worker sees it: its
// assembled params, plus the write side of the response protocol.
// Handlers stream the response with WriteStdout / WriteStdoutBytes and
// finish with End; every writer goes through the connection's record
// lock, so concurrent handlers interleave cleanly on the one response
// pipe.
type ServerRequest struct {
	c  *Conn
	ID uint16

	Params []byte
	// TraceID is the client request's trace id, carried across machines
	// by the BEGIN record's trace extension (0 when untraced). The pool
	// uses it to land the worker's service time in the client's span.
	TraceID uint32
}

// WriteStdout sends one STDOUT record carrying the aggregate by
// reference (ownership passes on success). On a copy-mode response pipe
// the conn serializes it, charging the staging copy.
func (r *ServerRequest) WriteStdout(p *sim.Proc, a *core.Agg) error {
	return r.c.WriteRecord(p, Record{Header: Header{Type: RecStdout, ReqID: r.ID}, Agg: a})
}

// WriteStdoutBytes streams raw bytes as STDOUT records of at most
// MaxPayload each.
func (r *ServerRequest) WriteStdoutBytes(p *sim.Proc, b []byte) error {
	for off := 0; off < len(b); off += MaxPayload {
		end := off + MaxPayload
		if end > len(b) {
			end = len(b)
		}
		rec := Record{Header: Header{Type: RecStdout, ReqID: r.ID}, Bytes: b[off:end]}
		if err := r.c.WriteRecord(p, rec); err != nil {
			return err
		}
	}
	return nil
}

// End closes the request with the application status (0 = success). The
// END record carries the status in its header's length field.
func (r *ServerRequest) End(p *sim.Proc, status uint32) error {
	return r.c.WriteRecord(p, Record{Header: Header{Type: RecEnd, Flags: FlagEndStream, ReqID: r.ID, Length: status}})
}

// Reply answers the request in one step: a STDOUT record carrying a
// clone of a (the caller keeps its reference — the shape of a caching
// app serving the same sealed document repeatedly), then END with
// status. The clone-ownership subtlety on write errors is handled here
// so handlers don't each re-implement it.
func (r *ServerRequest) Reply(p *sim.Proc, a *core.Agg, status uint32) error {
	out := a.Clone()
	if err := r.WriteStdout(p, out); err != nil {
		out.Release() // on error the writer leaves ownership here
		return err
	}
	return r.End(p, status)
}

// ReplyBytes answers the request with raw bytes (chunked STDOUT records)
// and END.
func (r *ServerRequest) ReplyBytes(p *sim.Proc, b []byte, status uint32) error {
	if err := r.WriteStdoutBytes(p, b); err != nil {
		return err
	}
	return r.End(p, status)
}

// Handler serves one request inside a worker. It runs on its own
// simulated proc, so M requests progress concurrently within one worker
// process; it must call End (or fail trying) before returning.
type Handler func(p *sim.Proc, req *ServerRequest)

// pendingReq assembles one request's PARAMS stream before dispatch.
type pendingReq struct {
	trace  uint32
	params []byte
}

// Serve runs a worker's demultiplexing loop over conn c: BEGIN opens a
// request, PARAMS records accumulate until their stream ends, and each
// complete request is dispatched to handler on a fresh proc. Serve
// returns when the server closes the request pipe (EOF) or the stream
// corrupts; response-side write errors are the handlers' to observe and
// are counted on the conn.
func Serve(p *sim.Proc, c *Conn, handler Handler) {
	reqs := make(map[uint16]*pendingReq)
	for {
		rec, err := c.ReadRecord(p)
		if err != nil {
			return
		}
		pd := reqs[rec.ReqID]
		switch rec.Type {
		case RecBegin:
			// A duplicate BEGIN on a live id starts the request over,
			// discarding the PARAMS it had assembled.
			reqs[rec.ReqID] = &pendingReq{trace: rec.Trace}
			rec.Release()
		case RecParams:
			if pd == nil {
				rec.Release()
				continue
			}
			pd.params = append(pd.params, rec.payloadBytes()...)
			rec.Release()
			if rec.Flags&FlagEndStream != 0 {
				dispatch(c, rec.ReqID, pd, handler)
				delete(reqs, rec.ReqID)
			}
		default:
			rec.Release()
		}
	}
}

// dispatch runs the handler for a complete request on its own proc.
func dispatch(c *Conn, id uint16, pd *pendingReq, handler Handler) {
	req := &ServerRequest{c: c, ID: id, Params: pd.params, TraceID: pd.trace}
	c.m.Eng.Go("fcgi.req", func(hp *sim.Proc) {
		handler(hp, req)
	})
}
