package fcgi

import (
	"fmt"
	"io"
	"slices"

	"iolite/internal/core"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// Request is one multiplexed request: its PARAMS payload (e.g. a path or
// serialized environment), sent as BEGIN plus one PARAMS record.
type Request struct {
	Params []byte
	// Idempotent marks the request safe to execute more than once, so a
	// replay-enabled pool re-dispatches it after a worker death (see
	// PoolConfig.Replay). It stays on the pool side; nothing of it goes on
	// the wire.
	Idempotent bool
	// Span, when set, is the request's observability span: the mux enters
	// its dispatch/service phases, stamps the span's trace id onto the
	// BEGIN record so it crosses to the worker machine, and carves the
	// channel's loss-recovery stall out of the service wait.
	Span *obs.Span
	// Tenant names the principal this request serves. On a QoS-enabled
	// pool it selects the admission account (rate bucket, in-flight
	// share) and the tenant-aware routing signal, and lands in the span.
	// Empty bypasses QoS.
	Tenant string
}

// Response is one completed request: the STDOUT payload — Body (by
// reference, on a ref-mode response pipe) or Bytes (copy mode) — and the
// application status from the END record.
type Response struct {
	Status uint32
	Body   *core.Agg
	Bytes  []byte
}

// Release drops the response's payload reference, if any.
func (r *Response) Release() {
	if r.Body != nil {
		r.Body.Release()
		r.Body = nil
	}
}

// stream is the mux-side state of one in-flight request: inbound records
// queued by the reader proc, and the requester parked on wait.
type stream struct {
	recs []Record
	wait sim.WaitQueue
	err  error
}

// Mux multiplexes up to depth concurrent requests over one Conn. Each
// request gets a request id; a dedicated reader proc routes inbound
// STDOUT/END records to the requester that owns the id. Do blocks when
// the connection is at depth — the worker's concurrency cap — and fails
// fast once the connection is broken.
type Mux struct {
	c     *Conn
	depth int

	streams  map[uint16]*stream
	freeIDs  []uint16
	nextID   uint16
	inflight int
	slots    sim.WaitQueue

	err    error
	onFail []func(error)
}

// NewMux starts a multiplexer of the given depth over c, spawning its
// reader proc on the connection's machine.
func NewMux(c *Conn, depth int) *Mux {
	if depth <= 0 {
		depth = 1
	}
	mx := &Mux{c: c, depth: depth, streams: make(map[uint16]*stream)}
	c.m.Eng.Go("fcgi.mux", mx.readLoop)
	return mx
}

// Err returns the terminal connection error, if the mux has failed.
func (mx *Mux) Err() error { return mx.err }

// OnFail registers fn to run once, when the mux breaks — the supervision
// hook a pool uses to respawn the worker behind this connection. A handler
// registered after the mux has already broken fires immediately (the
// engine's lock-step execution makes registration atomic with respect to
// the reader proc, but the reader may have failed the mux on an earlier
// instant — supervision must not miss that).
func (mx *Mux) OnFail(fn func(error)) {
	if mx.err != nil {
		fn(mx.err)
		return
	}
	mx.onFail = append(mx.onFail, fn)
}

func (mx *Mux) allocID() uint16 {
	if n := len(mx.freeIDs); n > 0 {
		id := mx.freeIDs[n-1]
		mx.freeIDs = mx.freeIDs[:n-1]
		return id
	}
	mx.nextID++
	return mx.nextID
}

// retireID releases a request's stream state and returns its id and depth
// slot to circulation. Records still queued (a handler writing past its
// END) drop their references, as fail() does.
func (mx *Mux) retireID(id uint16, st *stream) {
	for _, rec := range st.recs {
		rec.Release()
	}
	st.recs = nil
	delete(mx.streams, id)
	mx.freeIDs = append(mx.freeIDs, id)
	mx.inflight--
	mx.slots.Wake(1)
}

// Do issues one request and blocks until its END record or a connection
// failure. An error matching ErrNotSent means no record reached the
// worker, so the caller may re-route the request. The caller owns the
// returned response (Release its Body when done).
func (mx *Mux) Do(p *sim.Proc, req Request) (*Response, error) {
	for mx.err == nil && mx.inflight >= mx.depth {
		mx.slots.Wait(p)
	}
	if mx.err != nil {
		// The connection broke before dispatch — possibly while this
		// request waited for a slot, the race the pool's re-routing
		// exists for.
		return nil, notSent(mx.err)
	}
	id := mx.allocID()
	st := &stream{}
	mx.streams[id] = st
	mx.inflight++

	var stallBase sim.Duration
	if req.Span != nil {
		stallBase = mx.c.StallTime()
		req.Span.Enter(p.Now(), obs.PhaseDispatch)
	}
	// A write failure on either record means the request never executed:
	// the worker dispatches a request only once its PARAMS stream is
	// complete, so a partially delivered request is inert.
	for _, rec := range [...]Record{
		{Header: Header{Type: RecBegin, ReqID: id, Trace: req.Span.ID()}},
		{Header: Header{Type: RecParams, Flags: FlagEndStream, ReqID: id}, Bytes: req.Params},
	} {
		if err := mx.c.WriteRecord(p, rec); err != nil {
			mx.retireID(id, st)
			return nil, notSent(err)
		}
	}
	if req.Span != nil {
		req.Span.Enter(p.Now(), obs.PhaseService)
	}

	resp := &Response{}
	var body *core.Agg
	for {
		for len(st.recs) == 0 && st.err == nil {
			st.wait.Wait(p)
		}
		if st.err != nil {
			if body != nil {
				body.Release()
			}
			mx.retireID(id, st)
			return nil, st.err
		}
		rec := st.recs[0]
		st.recs = st.recs[1:]
		switch rec.Type {
		case RecStdout:
			if rec.Agg != nil {
				if body == nil {
					body = rec.Agg
				} else {
					body.Concat(rec.Agg)
					rec.Agg.Release()
				}
			} else {
				resp.Bytes = append(resp.Bytes, rec.Bytes...)
			}
		case RecEnd:
			resp.Status = rec.Length
			resp.Body = body
			mx.retireID(id, st)
			if req.Span != nil {
				req.Span.Stall(mx.c.StallTime() - stallBase)
			}
			return resp, nil
		default:
			rec.Release() // stray record type: drop
		}
	}
}

// notSent tags err as a pre-dispatch failure (see ErrNotSent).
func notSent(err error) error {
	return fmt.Errorf("%w: %w", ErrNotSent, err)
}

// readLoop is the mux's reader proc: it demultiplexes inbound records to
// their streams until the connection dies, then fails every in-flight
// request.
func (mx *Mux) readLoop(p *sim.Proc) {
	for {
		rec, err := mx.c.ReadRecord(p)
		if err != nil {
			if err == io.EOF {
				// A clean close between records still breaks every
				// request that was waiting on a response.
				err = ErrBroken
			}
			mx.fail(err)
			return
		}
		st := mx.streams[rec.ReqID]
		if st == nil {
			rec.Release() // request already gone (or never existed)
			continue
		}
		st.recs = append(st.recs, rec)
		st.wait.Wake(1)
	}
}

// fail marks the mux broken and wakes everyone: in-flight requests see
// the error (wrapped in ErrWorkerDied — they may have partially executed,
// so only idempotent ones are replayable), slot waiters stop queueing, and
// the supervision hooks learn the worker behind this connection is gone.
func (mx *Mux) fail(err error) {
	if mx.err != nil {
		return
	}
	mx.err = err
	inflight := fmt.Errorf("%w: %w", ErrWorkerDied, err)
	// Wake in request-id order, not map order: woken requesters resume in
	// wake order, and their replays and retries must not depend on the
	// map's randomized iteration.
	ids := make([]uint16, 0, len(mx.streams))
	for id := range mx.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st := mx.streams[id]
		for _, rec := range st.recs {
			rec.Release()
		}
		st.recs = nil
		st.err = inflight
		st.wait.Wake(-1)
	}
	mx.slots.Wake(-1)
	for _, fn := range mx.onFail {
		fn(err)
	}
	mx.onFail = nil
}

// Close tears the connection down; the reader proc exits on the resulting
// EOF and in-flight requests fail with ErrBroken. Must run on a simulated
// proc of the conn's owning process.
func (mx *Mux) Close(p *sim.Proc) {
	mx.c.Close(p)
}
