package fcgi

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// lock is a FIFO mutex for simulated processes. WriteRecord holds it
// across a whole record so that records from concurrent requests
// interleave on the channel at record granularity, never mid-record (the
// pipe and socket both admit large writes piecewise, so an unlocked
// writer that blocks on a full FIFO or send window would corrupt the
// framing).
type lock struct {
	held bool
	wait sim.WaitQueue
}

func (l *lock) acquire(p *sim.Proc) {
	for l.held {
		l.wait.Wait(p)
	}
	l.held = true
}

func (l *lock) release() {
	l.held = false
	l.wait.Wake(1)
}

// WireMode selects how one direction of a Conn carries record payloads.
// It is the capability half of the transport abstraction: a Transport
// hands the pool fd pairs plus the WireMode each direction supports, and
// the Conn frames accordingly. Inbound, WireCopy records are reassembled
// from a byte stream and both aggregate modes from an aggregate stream
// (see ReadRecord).
type WireMode int

const (
	// WireCopy serializes records into the descriptor's byte stream with
	// conventional copy semantics: payload bytes are charged into the
	// kernel on write and out again on read (and an aggregate payload
	// pays a staging copy first — the conventional wire format cannot
	// gather from references).
	WireCopy WireMode = iota
	// WireRef frames each record as one buffer aggregate that stays on the
	// machine — over a reference-mode pipe (§4.4) or a reference-mode
	// socket between two local processes: a header generated in the
	// sender's pool plus the sealed payload by reference. Zero copy charge
	// for payload bytes. A pipe hands the receiver one whole record per
	// read and a socket MSS-sized pieces; the self-describing headers let
	// one stream decoder reassemble both.
	WireRef
	// WireBoundary crosses a machine boundary. Sealed aggregates cannot
	// be passed by reference to another machine, so the sender gathers
	// the payload straight from its slices into the socket send buffer —
	// exactly one charged copy per payload byte, the unavoidable boundary
	// copy — and the receiver reassembles records from early-demultiplexed
	// aggregates with no further copy charge (§3.6: packet payloads land
	// in IO-Lite buffers the process is granted access to).
	WireBoundary
)

func (m WireMode) String() string {
	switch m {
	case WireCopy:
		return "copy"
	case WireRef:
		return "ref"
	case WireBoundary:
		return "boundary"
	}
	return "unknown"
}

// Conn frames records over one fd pair: rfd is the inbound record stream,
// wfd the outbound one, both fds in process pr's table (a full-duplex
// socket channel passes the same fd twice). Each direction follows its
// own WireMode, which the Transport picks.
type Conn struct {
	m  *kernel.Machine
	pr *kernel.Process

	rfd, wfd     int
	rmode, wmode WireMode

	wlock lock

	// rbuf reassembles copy-mode records across reads; rAgg reassembles
	// aggregate-mode records across deliveries; scratch is the reusable
	// POSIX read buffer.
	rbuf    []byte
	rAgg    *core.Agg
	scratch []byte

	// ep is the socket endpoint behind wfd, probed uncharged at
	// construction; nil on pipe channels. Observability samples its
	// loss-recovery stall around blocking waits, and only a socket channel
	// corks its writes (TCP_CORK), so pipe channels never pay a setsockopt
	// syscall.
	ep *netsim.Endpoint

	// closed latches Close: a Conn handle outlives its descriptors (a
	// failed worker's mux is torn down while writers still hold the
	// handle), and the fd numbers it cached may be reused by a fresh
	// channel on the same process — so every entry point must fail on the
	// flag rather than re-resolve a stale number into someone else's
	// stream.
	closed bool

	// Submission-ring mode (EnableRing): outbound records queue on ringQ
	// for the flusher process to batch through wring; inbound refills go
	// through rring with receive coalescing. See ring.go.
	ringOn     bool
	ringClosed bool
	wring      *kernel.RingDesc
	rring      *kernel.RingDesc
	ringQ      []*ringWrite
	ringWake   sim.WaitQueue

	recsIn, recsOut int64
	writeErrs       int64
}

// NewConn wraps the fd pair as a record stream with explicit
// per-direction wire modes. The transport picks them, since only it knows
// whether a pipe passes references, or whether a socket stays on-machine
// (WireRef keeps references) or crosses to another one (WireBoundary must
// degrade to the single boundary copy).
func NewConn(m *kernel.Machine, pr *kernel.Process, rfd, wfd int, rmode, wmode WireMode) *Conn {
	c := &Conn{m: m, pr: pr, rfd: rfd, wfd: wfd, rmode: rmode, wmode: wmode}
	if d, err := pr.Desc(wfd); err == nil {
		c.ep, _ = kernel.EndpointOf(d)
	}
	return c
}

// StallTime reports the loss-recovery stall accumulated on the conn's
// socket channel, both directions (our sends and the peer's — either
// one stalls a request blocked on this conn). Pipe channels have no
// loss and report 0.
func (c *Conn) StallTime() sim.Duration {
	if c.ep == nil {
		return 0
	}
	return c.ep.StallTime() + c.ep.PeerStallTime()
}

// Stats reports records received, records sent, and write errors (the
// peer's end of the outbound channel was gone — the simulated EPIPE).
func (c *Conn) Stats() (in, out, writeErrs int64) {
	return c.recsIn, c.recsOut, c.writeErrs
}

// framed is one outbound record ready for the channel. On a reference
// channel agg holds the whole record: the header packed in the sender's
// pool with the payload concatenated by reference. Serialized channels
// carry hdr then pay as bytes.
type framed struct {
	agg *core.Agg
	hdr []byte
	pay []byte
}

// frame encodes rec's header and, on a reference channel, packs it with
// the payload into one aggregate. The header is generated in place —
// freshly produced data, like a formatted response header's bytes, not a
// copy of an existing object — so ref-mode framing charges buffer
// allocation and aggregate work but zero copy bytes: the meter stays
// clean for the "payload bytes copied" assertions the subsystem is built
// to win. A serialized record's payload is staged separately (stage), so
// the direct path can charge it after the header write.
func (c *Conn) frame(p *sim.Proc, rec Record) framed {
	var hbuf [HeaderLen + TraceLen]byte
	hdr := hbuf[:rec.Header.encode(hbuf[:])]
	if c.wmode != WireRef {
		return framed{hdr: append([]byte(nil), hdr...)}
	}
	out := core.FromOwnedSlice(c.pr.Pool.Pack(p, hdr))
	if rec.Agg != nil {
		out.Concat(rec.Agg)
	} else if len(rec.Bytes) > 0 {
		// Copy-payload caller on a reference channel: the bytes are
		// packed into pool buffers (the producer's copy, charged by
		// PackBytes) and then travel by reference.
		pay := core.PackBytes(p, c.pr.Pool, rec.Bytes)
		out.Concat(pay)
		pay.Release()
	}
	return framed{agg: out}
}

// stage returns a serialized record's payload bytes. WireCopy stages an
// aggregate payload into contiguous bytes first (a real copy, charged) —
// the conventional wire format cannot gather from references.
// WireBoundary gathers writev-style straight from the slices (aggregate
// walking only): the machine boundary's single charged copy per payload
// byte is the write into the socket send buffer itself.
func (c *Conn) stage(p *sim.Proc, rec Record) []byte {
	if rec.Agg == nil {
		return rec.Bytes
	}
	if c.wmode == WireBoundary {
		c.m.Host.Use(p, sim.Duration(rec.Agg.NumSlices())*c.m.Costs.AggOp)
	} else {
		c.m.Host.Use(p, c.m.Costs.Copy(rec.Agg.Len()))
	}
	return rec.Agg.Materialize()
}

// WriteRecord frames and sends one record. Ownership of rec.Agg passes to
// the connection on success; on error the caller still owns it. The
// record's Length is derived from the payload (END records keep the
// caller's Length, which carries the application status). An ErrClosed
// from the channel — the peer departed — is counted as a write error and
// returned for the caller to surface.
func (c *Conn) WriteRecord(p *sim.Proc, rec Record) error {
	if rec.Type == RecEnd {
		if rec.payloadLen() != 0 {
			return ErrProtocol
		}
	} else {
		rec.Length = uint32(rec.payloadLen())
	}
	var err error
	switch {
	case c.closed:
		err = ErrBroken
	case c.ringOn:
		err = c.ringWriteRecord(p, rec)
	default:
		err = c.writeDirect(p, rec)
	}
	if err != nil {
		c.writeErrs++
		return err
	}
	if rec.Agg != nil {
		rec.Agg.Release() // a reference frame's Concat reference survives
	}
	c.recsOut++
	return nil
}

// writeDirect moves one record with its own syscalls, holding the write
// lock across the whole record.
func (c *Conn) writeDirect(p *sim.Proc, rec Record) error {
	c.wlock.acquire(p)
	defer c.wlock.release()
	if c.closed {
		// Closed while this record waited for the write lock. The fd
		// numbers may already belong to a replacement channel — writing
		// through them would corrupt an innocent stream.
		return ErrBroken
	}
	f := c.frame(p, rec)
	if f.agg != nil {
		err := c.m.IOLWrite(p, c.pr, c.wfd, f.agg)
		if err != nil {
			f.agg.Release()
		}
		return err
	}
	// Serialized modes: header then payload through the channel as
	// bytes, corked so the record header never becomes its own sub-MSS
	// segment on a socket channel.
	c.cork(p, true)
	if _, err := c.m.WritePOSIX(p, c.pr, c.wfd, f.hdr); err != nil {
		return err
	}
	if c.closed {
		// Closed while the header write was blocked: the payload write
		// would re-resolve wfd, which may be a reused number by now.
		return ErrBroken
	}
	if rec.payloadLen() > 0 {
		if _, err := c.m.WritePOSIX(p, c.pr, c.wfd, c.stage(p, rec)); err != nil {
			return err
		}
	}
	c.cork(p, false)
	return nil
}

// cork scopes TCP_CORK around one serialized record's header+payload
// writes on a socket channel; pipe channels (no segment boundaries) skip
// it entirely, probed at construction. Error paths skip the uncork, which
// is safe because a failed write means the channel is dead and Close
// flushes the transport anyway.
func (c *Conn) cork(p *sim.Proc, on bool) {
	if c.ep == nil {
		return
	}
	_ = c.m.SetCork(p, c.pr, c.wfd, on)
}

// ReadRecord blocks for the next inbound record. io.EOF means the peer
// closed cleanly between records; io.ErrUnexpectedEOF means it died
// mid-record (a crashed worker); ErrProtocol means the stream is corrupt.
// A WireCopy channel reassembles records from its byte stream; the
// aggregate modes reassemble them from aggregate deliveries (one whole
// record per read on a reference pipe, MSS-sized pieces on a socket,
// coalesced runs of either through the ring).
func (c *Conn) ReadRecord(p *sim.Proc) (Record, error) {
	if c.closed {
		return Record{}, io.EOF
	}
	if c.rmode == WireCopy {
		return c.readCopyRecord(p)
	}
	return c.readStreamRecord(p)
}

// readStreamRecord reassembles one record from the aggregate stream (a
// record may span several deliveries, a delivery may hold several
// records). The payload keeps its buffer identity: on the same machine
// those are the sender's sealed buffers, across a machine boundary they
// are the receive buffers early demultiplexing filled — in both cases
// zero copy charge here.
func (c *Conn) readStreamRecord(p *sim.Proc) (Record, error) {
	if err := c.fillAgg(p, HeaderLen); err != nil {
		return Record{}, err
	}
	var hb [HeaderLen + TraceLen]byte
	c.rAgg.ReadAt(hb[:HeaderLen], 0)
	have := HeaderLen
	if hb[1]&FlagTraced != 0 {
		if err := c.fillAgg(p, HeaderLen+TraceLen); err != nil {
			return Record{}, err
		}
		c.rAgg.ReadAt(hb[HeaderLen:], HeaderLen)
		have += TraceLen
	}
	h, hlen, err := DecodeHeader(hb[:have])
	if err != nil {
		return Record{}, err
	}
	want := int(h.Length)
	if h.Type == RecEnd {
		want = 0
	}
	// The header stays buffered until the whole record has arrived, so a
	// peer that dies between a record's header and its payload reports
	// io.ErrUnexpectedEOF (a torn record), never a clean end of stream.
	if err := c.fillAgg(p, hlen+want); err != nil {
		return Record{}, err
	}
	c.rAgg.DropFront(hlen)
	c.recsIn++
	if want == 0 {
		return Record{Header: h}, nil
	}
	pay := c.rAgg
	c.rAgg = pay.Split(want)
	return Record{Header: h, Agg: pay}, nil
}

// readCopyRecord reassembles one record from the conventional byte
// stream.
func (c *Conn) readCopyRecord(p *sim.Proc) (Record, error) {
	if err := c.fill(p, HeaderLen); err != nil {
		return Record{}, err
	}
	if c.rbuf[1]&FlagTraced != 0 {
		if err := c.fill(p, HeaderLen+TraceLen); err != nil {
			return Record{}, err
		}
	}
	h, hlen, err := DecodeHeader(c.rbuf)
	if err != nil {
		return Record{}, err
	}
	want := int(h.Length)
	if h.Type == RecEnd {
		want = 0
	}
	if err := c.fill(p, hlen+want); err != nil {
		return Record{}, err
	}
	var pay []byte
	if want > 0 {
		pay = append([]byte(nil), c.rbuf[hlen:hlen+want]...)
	}
	c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[hlen+want:])]
	c.recsIn++
	return Record{Header: h, Bytes: pay}, nil
}

// fillAgg refills rAgg until at least n bytes are assembled, one refill
// op per pass: a direct IOL_read takes the next delivery; in ring mode
// one Submit + Reap takes every ready delivery coalesced, with the
// MSG_WAITALL threshold (the bytes still missing) keeping the op in
// flight until the record can complete — a 16 KB record arriving as a
// dozen MSS deliveries costs one refill, not a dozen reads. End of stream
// with a partial record buffered is a torn record.
func (c *Conn) fillAgg(p *sim.Proc, n int) error {
	for {
		have := 0
		if c.rAgg != nil {
			have = c.rAgg.Len()
		}
		if have >= n {
			return nil
		}
		var a *core.Agg
		var err error
		if c.ringOn {
			cqe := c.ringRead(p, kernel.SQE{Op: kernel.OpIOLRead, FD: c.rfd, N: kernel.MaxIO, Need: int64(n - have)})
			a, err = cqe.Agg, cqe.Err
		} else {
			a, err = c.m.IOLRead(p, c.pr, c.rfd, kernel.MaxIO)
		}
		if err != nil {
			if err == io.EOF && have > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if c.rAgg == nil {
			c.rAgg = a
		} else {
			c.rAgg.Concat(a)
			a.Release()
		}
	}
}

// fill is fillAgg for the copy-mode byte buffer: each pass is one POSIX
// read into the scratch buffer, direct or (in ring mode) coalesced
// through the read ring.
func (c *Conn) fill(p *sim.Proc, n int) error {
	for len(c.rbuf) < n {
		if c.scratch == nil {
			c.scratch = make([]byte, 16<<10)
		}
		var got int
		var err error
		if c.ringOn {
			need := min(n-len(c.rbuf), len(c.scratch))
			cqe := c.ringRead(p, kernel.SQE{Op: kernel.OpReadPOSIX, FD: c.rfd, Buf: c.scratch, Need: int64(need)})
			got, err = int(cqe.Res), cqe.Err
		} else {
			got, err = c.m.ReadPOSIX(p, c.pr, c.rfd, c.scratch)
		}
		if err != nil {
			if err == io.EOF && len(c.rbuf) > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		c.rbuf = append(c.rbuf, c.scratch[:got]...)
	}
	return nil
}

// Close shuts the connection down: the outbound end first (the peer's
// reader drains to EOF), then the inbound side (a peer still writing gets
// EPIPE). A full-duplex socket channel holds one fd for both directions
// and is closed once. Safe to call from any proc on the owning process.
func (c *Conn) Close(p *sim.Proc) {
	if c.closed {
		return
	}
	c.closed = true
	if c.rAgg != nil {
		c.rAgg.Release()
		c.rAgg = nil
	}
	if c.ringOn && !c.ringClosed {
		// Stop the flusher: new writes fail fast, queued records fail
		// against the closing fd, and the flusher process exits once its
		// queue is dry.
		c.ringClosed = true
		c.ringWake.Wake(1)
	}
	c.m.Close(p, c.pr, c.wfd)
	if c.rfd != c.wfd {
		c.m.Close(p, c.pr, c.rfd)
	}
}
