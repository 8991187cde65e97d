package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// sockDesc is a connected TCP socket endpoint. IOL_write passes the
// aggregate to the transport by reference (§4.1); IOL_read returns the
// delivered data as a real aggregate with no copy on the reference path —
// early demultiplexing (§3.6) placed the packet payload in IO-Lite buffers
// the process can be granted access to.
type sockDesc struct {
	m  *Machine
	ep *netsim.Endpoint

	// pending holds the tail of a delivery that exceeded the reader's
	// requested length.
	pending *core.Agg
}

// EndpointOf returns the transport endpoint behind a socket descriptor,
// for callers that need transport-level control (Drain, socket-buffer
// stats).
func EndpointOf(d Desc) (*netsim.Endpoint, bool) {
	sd, ok := d.(*sockDesc)
	if !ok {
		return nil, false
	}
	return sd.ep, true
}

// takeAgg produces the next received aggregate: the pending tail, or one
// delivery from the endpoint. Reference-mode deliveries keep their buffer
// identity — the returned aggregate references the sender's immutable
// buffers, with read access granted to pr's domain (no data copy, no
// charge beyond VM grants that are free in steady state). Copy-mode
// deliveries (conventional peers) arrive as received bytes and are wrapped
// uncharged in pr's pool: early demux already placed them where the
// process can read. nil reports end of stream.
func (d *sockDesc) takeAgg(p *sim.Proc, pr *Process) *core.Agg {
	a := d.pending
	d.pending = nil
	if a == nil {
		dv, ok := d.ep.Recv(p)
		if !ok {
			return nil
		}
		if a = dv.Agg; a == nil {
			a = core.PackBytes(nil, pr.Pool, dv.Data)
		}
	}
	core.Transfer(p, a, pr.Domain)
	return a
}

// spliceInSupported gates the sink capability on the endpoint's send path:
// a conventional socket's send buffer requires a private copy, so only
// reference-mode endpoints splice.
func (d *sockDesc) spliceInSupported() bool { return d.ep.RefMode() }

// SpliceIn sends a kernel-resident sealed aggregate by reference. Only
// reference-mode endpoints accept it: a conventional socket's send buffer
// requires a private copy, so the splice layer reports ErrNotSupported and
// the caller falls back to the copying write path.
func (d *sockDesc) SpliceIn(p *sim.Proc, a *core.Agg) error {
	if !d.ep.RefMode() {
		return ErrNotSupported
	}
	if d.ep.Closing() {
		return ErrClosed
	}
	d.ep.Send(p, netsim.Payload{Agg: a}, nil)
	return nil
}

func (d *sockDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	a := d.takeAgg(p, pr)
	if a == nil {
		return nil, io.EOF
	}
	return splitPending(a, n, &d.pending), nil
}

func (d *sockDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	if d.ep.Closing() {
		return ErrClosed
	}
	core.CheckReadable(a, pr.Domain)
	d.m.Host.Use(p, sim.Duration(a.NumSlices())*d.m.Costs.AggOp)
	core.Transfer(p, a, d.m.KernelDomain)
	if d.ep.Closing() {
		// The descriptor closed while the charge above held the proc (a
		// concurrent teardown — e.g. a killed worker with ring submissions
		// in flight). Ownership of a stays with the caller, like every
		// error return.
		return ErrClosed
	}
	d.ep.Send(p, netsim.Payload{Agg: a}, nil)
	return nil
}

func (d *sockDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	a := d.takeAgg(p, pr)
	if a == nil {
		return 0, io.EOF
	}
	return d.m.copyOut(p, a, dst, &d.pending), nil
}

func (d *sockDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	if d.ep.Closing() {
		return 0, ErrClosed
	}
	d.m.Host.Use(p, d.m.Costs.Copy(len(src)))
	if d.ep.Closing() {
		// Closed while the copy charge held the proc: EPIPE, not a panic.
		return 0, ErrClosed
	}
	d.ep.Send(p, netsim.Payload{Data: src}, nil)
	return len(src), nil
}

// PollReady implements Pollable: readable when a delivery (or EOF) can be
// taken without parking.
func (d *sockDesc) PollReady() Interest {
	if d.pending != nil || d.ep.RecvReady() {
		return Readable
	}
	return 0
}

// SetPollNotify implements Pollable: fn fires whenever a delivery lands or
// the peer closes.
func (d *sockDesc) SetPollNotify(fn func()) { d.ep.SetRecvNotify(fn) }

func (d *sockDesc) Close(p *sim.Proc) error {
	if d.pending != nil {
		d.pending.Release()
		d.pending = nil
	}
	// Abandon the receive direction too: deliveries already queued (and any
	// still in flight) release their buffer references instead of leaking
	// when no reader will ever drain them.
	d.ep.ShutdownRecv()
	d.ep.Close(p)
	return nil
}

// listenDesc is a listening socket: it only accepts. Machine.Accept
// unwraps it; it has no data capabilities.
type listenDesc struct {
	m   *Machine
	lst *netsim.Listener

	// nonblock makes Accept return ErrAgain instead of parking when no
	// connection is pending (O_NONBLOCK, set by Machine.SetNonblock).
	nonblock bool
}

// PollReady implements Pollable: acceptable when a connection is queued
// (or the listener has closed, so Accept returns without parking).
func (d *listenDesc) PollReady() Interest {
	if d.lst.Pending() > 0 || d.lst.Closed() {
		return Acceptable
	}
	return 0
}

// SetPollNotify implements Pollable: fn fires when a dial lands in the
// backlog or the listener closes.
func (d *listenDesc) SetPollNotify(fn func()) { d.lst.SetNotify(fn) }

func (d *listenDesc) Close(*sim.Proc) error {
	d.lst.Close()
	return nil
}
