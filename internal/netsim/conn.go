package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Payload is the data of one send: either an IO-Lite aggregate (reference
// mode — ownership transfers to the transport, which releases buffers as
// the peer acknowledges) or a private byte slice (copy mode; the kernel has
// already charged the copy into socket buffers).
type Payload struct {
	Agg  *core.Agg
	Data []byte
}

// Len returns the payload length.
func (pl Payload) Len() int {
	if pl.Agg != nil {
		return pl.Agg.Len()
	}
	return len(pl.Data)
}

// Delivery is one received chunk, in arrival order. Exactly one of Agg/Data
// is set, mirroring the sender's mode.
type Delivery struct {
	Agg  *core.Agg
	Data []byte
}

// Len returns the delivered byte count.
func (d Delivery) Len() int {
	if d.Agg != nil {
		return d.Agg.Len()
	}
	return len(d.Data)
}

// Bytes materializes the delivered data (copying for aggregates).
func (d Delivery) Bytes() []byte {
	if d.Agg != nil {
		return d.Agg.Materialize()
	}
	return d.Data
}

// Release drops any buffer references the delivery holds.
func (d Delivery) Release() {
	if d.Agg != nil {
		d.Agg.Release()
	}
}

// ConnOpts configures one connection.
type ConnOpts struct {
	// Tss is the socket send buffer size in bytes (64 KB in all the paper's
	// experiments). At most Tss bytes may be queued or in flight, which
	// also caps the connection's throughput at Tss/RTT (§5.7).
	Tss int
	// ServerRefMode selects the IO-Lite send path for the server-side
	// endpoint: payload passes by reference, checksums may be cached, and
	// no socket-buffer memory is consumed.
	ServerRefMode bool
}

// Conn is an established connection. The two directions are independent
// endpoints, allocated with the Conn.
type Conn struct {
	client Endpoint
	server Endpoint
}

// ClientEnd returns the endpoint used by the client process.
func (c *Conn) ClientEnd() *Endpoint { return &c.client }

// ServerEnd returns the endpoint used by the server process.
func (c *Conn) ServerEnd() *Endpoint { return &c.server }

// sendItem is admitted payload awaiting segmentation. done fires when the
// segment carrying the item's last byte is acknowledged. bind is the
// sender's attribution binding (captured only while a charge hook is
// installed) so the pump can bin the item's wire and checksum work to
// the request that queued it.
type sendItem struct {
	pl   Payload
	off  int
	done func()
	bind interface{}
}

// segPiece is one gathered piece of an outgoing segment, n bytes long. A
// corked segment may carry the tail of one send item plus whole following
// items, mixing reference pieces (run) and copy pieces (data); exactly one
// of the two is set. A ref piece's run is its buffer slices, a stretch of
// its chunk's slice array, like the mbufs of §4.1 that point at IO-Lite
// buffers out of line.
type segPiece struct {
	n    int
	run  []core.Slice
	data []byte
}

// segChunk is one MSS-granular wire unit of an in-flight segment. Without
// offload a record carries exactly one chunk; with LSO a super-segment
// carries up to SuperSeg/MSS of them, but sequence space, fault judgment,
// and acknowledgment all stay chunk-granular: the receiver can accept a
// super-segment's prefix up to a hole, and the resulting partial ack
// releases whole chunks only. A chunk owns one buffer reference per slice
// of its ref pieces' runs, kept in slices piece by piece, and the done
// callbacks of send items whose last byte it carries. Its pieces, slices
// and dones arrays belong to the ack record and are reused when the
// record is, so a retransmission resends a snapshot of the chunk headers,
// never the record's arrays themselves.
type segChunk struct {
	seq    int64 // first payload byte's sequence number
	n      int
	pieces []segPiece
	slices []core.Slice
	dones  []func()
}

// ackRecord tracks one in-flight (super-)segment so acknowledgments
// release resources in order. The record keeps its gathered chunks so a
// retransmission re-sends the very same buffers: no copy is re-charged
// (the copy was paid at admission) and no extra buffer reference is taken
// (each chunk's references live until the ack releases them). Partial
// acks trim acknowledged chunks off the front, so the window's first
// unacked chunk — the one a retransmission resends — is always the front
// record's first chunk. Once fully acked the record
// goes back to its sending host, which reuses it, with its chunk, piece,
// slice and done arrays, for a later segment.
type ackRecord struct {
	seq    int64 // first unacknowledged payload byte's sequence number
	n      int   // unacknowledged payload bytes (sum of chunk lengths)
	chunks []segChunk
	acked  int      // chunks[acked:] are the unacknowledged ones
	sent   sim.Time // first transmission, for RTT sampling
	retx   bool     // retransmitted at least once (Karn: no RTT sample)
}

// end returns the sequence number just past this segment.
func (r *ackRecord) end() int64 { return r.seq + int64(r.n) }

// unacked returns the chunks not yet acknowledged.
func (r *ackRecord) unacked() []segChunk { return r.chunks[r.acked:] }

// addChunk extends the record by one empty chunk at seq, reusing the
// arrays a recycled record left in that slot.
func (r *ackRecord) addChunk(seq int64) *segChunk {
	if len(r.chunks) < cap(r.chunks) {
		r.chunks = r.chunks[:len(r.chunks)+1]
	} else {
		r.chunks = append(r.chunks, segChunk{})
	}
	ck := &r.chunks[len(r.chunks)-1]
	ck.seq, ck.n = seq, 0
	ck.pieces, ck.slices, ck.dones = ck.pieces[:0], ck.slices[:0], ck.dones[:0]
	return ck
}

// addRef appends a ref piece holding [off, off+n) of a, with one new
// reference per slice of its run. A later piece's append may outgrow the
// array the run views; that array keeps the same slices and is never
// written again, while slices, which owns the references, moves on.
func (ck *segChunk) addRef(a *core.Agg, off, n int) {
	lo := len(ck.slices)
	ck.slices = a.AppendRange(ck.slices, off, n)
	hi := len(ck.slices)
	ck.pieces = append(ck.pieces, segPiece{n: n, run: ck.slices[lo:hi:hi]})
}

// trimAcked releases the record's chunks wholly below ackNo — their buffer
// references (piece by piece, each run in order: the order its pieces were
// cut), done callbacks (in admission order), and window bytes —
// leaving the remainder in place for retransmission. Returns the payload
// bytes freed. Cumulative acks land only on chunk boundaries (the
// receiver accepts whole chunks); anything else is a protocol bug.
func (r *ackRecord) trimAcked(ackNo int64) int {
	freed := 0
	for _, ck := range r.unacked() {
		if ck.seq+int64(ck.n) > ackNo {
			break
		}
		for _, s := range ck.slices {
			s.Buf.Release()
		}
		for _, done := range ck.dones {
			done()
		}
		clear(ck.pieces)
		clear(ck.slices)
		clear(ck.dones)
		freed += ck.n
		r.seq = ck.seq + int64(ck.n)
		r.n -= ck.n
		r.acked++
	}
	if rest := r.unacked(); r.seq < ackNo && len(rest) > 0 {
		panic(fmt.Sprintf("netsim: ack %d splits chunk at %d", ackNo, rest[0].seq))
	}
	return freed
}

// newRecord returns an empty ack record starting at seq, reusing one
// this host has recycled when it can.
func (h *Host) newRecord(seq int64) *ackRecord {
	var r *ackRecord
	if n := len(h.records); n > 0 {
		r = h.records[n-1]
		h.records = h.records[:n-1]
	} else {
		r = new(ackRecord)
	}
	r.seq = seq
	return r
}

// recycle takes back a fully acknowledged record. Nothing may keep a
// pointer to it: a queued retransmission holds its own chunk headers.
func (h *Host) recycle(r *ackRecord) {
	r.chunks, r.acked = r.chunks[:0], 0
	r.n, r.sent, r.retx = 0, 0, false
	h.records = append(h.records, r)
}

// Retransmission timing. RTO adapts to measured RTT (Jacobson) between
// these clamps; every timer expiry doubles it (exponential backoff) until
// an ack makes progress again. Timers exist only on endpoints a FaultPlan
// can touch — a reliable wire runs timer-free.
// minRTO is a floor against spurious timeouts, not a WAN kernel's 200 ms:
// the simulated links are microsecond-RTT datacenter wires, so the floor
// only needs to ride out ack latency inflated by CPU queueing. Before the
// first RTT sample the RTO is initRTO, a conservative guess (RFC 6298's
// 1 s, scaled to these wires), so a first ack that queues behind a full
// window on a slow link is not mistaken for a loss.
const (
	minRTO  = 200 * sim.Microsecond
	initRTO = 1 * sim.Millisecond
	maxRTO  = 1000 * sim.Millisecond
)

// Endpoint is one direction's sender plus the opposite direction's
// receiver, owned by one host.
type Endpoint struct {
	host *Host
	peer *Endpoint
	link *Link
	dir  int

	refMode bool
	tss     int

	// Sender state.
	sndQ      fifo[sendItem]
	sndBytes  int // admitted (queued-unsent + in-flight) bytes, ≤ tss
	queued    int // admitted-but-unsegmented bytes (the tail of sndBytes)
	corked    bool
	flush     bool // Drain's push: emit the held tail even while corked
	ackFIFO   fifo[*ackRecord]
	sndWait   sim.WaitQueue
	pump      *sim.Proc
	pumpIdle  bool
	closing   bool
	finSent   bool
	sockPages int // TagSockBuf pages currently reserved (copy mode)

	// sndUna is the lowest unacknowledged sequence number, sndNxt the
	// next to assign.
	sndUna, sndNxt int64

	// Receiver state. rcvNxt is the next expected sequence number.
	// rcvShut marks a local receive shutdown — queued and future
	// deliveries are discarded (but still acknowledged, so the peer's
	// sender can drain) without taking buffer references.
	rcvQ      fifo[Delivery]
	rcvWait   sim.WaitQueue
	rcvClosed bool
	rcvNxt    int64
	rcvShut   bool

	// rcvNotify fires (if set) when the receive side becomes ready
	// (delivery or FIN). Readiness descriptors hang their poll wakeups
	// here.
	rcvNotify func()

	// lx is the loss-recovery and delayed-ack state, nil until either
	// end of the connection first uses it: most endpoints ride a
	// reliable wire without offload and never need it.
	lx *lossState
}

// lossState is an endpoint's loss-recovery and delayed-ack state. Only an
// endpoint a FaultPlan can touch arms the RTO or reassembles, and only
// one on an offloading host delays acks.
type lossState struct {
	// Selective recovery (faulty wires). rtoTimer is the retransmission
	// timer on the engine's wheel, re-keyed in place as acks make
	// progress and canceled when nothing is in flight; rtoStep is
	// e.onRTO, bound when the timer is first armed. rto is its current
	// (backed-off) value; srtt/rttvar the Jacobson estimator. dupAcks
	// counts consecutive duplicate cumulative acks for fast retransmit.
	rto          sim.Duration
	srtt, rttvar sim.Duration
	rtoTimer     sim.Timer
	rtoStep      func()
	dupAcks      int
	// Stall accounting: a loss-recovery episode opens at the first
	// retransmission (timeout or fast retransmit) and closes when a
	// cumulative ack makes forward progress. stallAccum totals closed
	// episodes; observability carves this time out of request phases as
	// retransmit stall.
	stallAccum sim.Duration
	stallStart sim.Time
	inStall    bool
	// recoverUntil is the recovery point (NewReno's "recover", RFC 6582):
	// a fast retransmit or a timeout records sndNxt here. Until the
	// cumulative ack passes it, duplicate acks cannot trigger another fast
	// retransmit, and a partial ack — progress that stops short of it —
	// says the chunk at the new sndUna was lost too, so it is resent at
	// once. Each lost chunk costs one resend.
	recoverUntil int64
	// reasm is the receiver's reassembly queue: the out-of-order chunks
	// above rcvNxt, in sequence order, held until the hole before them
	// fills. It is bounded by the window, since the sender never has more
	// than tss bytes past its sndUna in flight.
	reasm []reasmChunk

	// Delayed acks (offloading hosts): ackEvents counts in-order receive
	// events since the last ack left; every DefaultAckEvery-th event acks
	// immediately, and the wheel timer bounds the wait for the rest. An
	// out-of-order arrival flushes immediately — the dup-ack
	// fast-retransmit signal never waits out the delay — and an outgoing
	// data segment piggybacks any pending ack for free. ackTimer is
	// re-keyed like rtoTimer; ackStep is e.onAckDelay, bound when it is
	// first armed.
	ackEvents int
	ackTimer  sim.Timer
	ackStep   func()
}

// loss returns the endpoint's loss state, making it on first use. Both
// ends of a connection share a faulty wire or an offloading host pair, so
// the peer's state comes in the same allocation.
func (e *Endpoint) loss() *lossState {
	if e.lx == nil {
		pair := new([2]lossState)
		e.lx, e.peer.lx = &pair[0], &pair[1]
	}
	return e.lx
}

// newConn wires two endpoints over link. clientHost dials serverHost.
func newConn(clientHost, serverHost *Host, link *Link, opts ConnOpts) *Conn {
	if opts.Tss <= 0 {
		opts.Tss = 64 << 10
	}
	c := &Conn{
		client: Endpoint{host: clientHost, link: link, dir: link.dirFrom(clientHost), tss: opts.Tss},
		server: Endpoint{host: serverHost, link: link, dir: link.dirFrom(serverHost), tss: opts.Tss, refMode: opts.ServerRefMode},
	}
	c.client.peer = &c.server
	c.server.peer = &c.client
	c.client.startPump()
	c.server.startPump()
	return c
}

// RefMode reports whether this endpoint sends by reference.
func (e *Endpoint) RefMode() bool { return e.refMode }

// Closing reports whether Close has been called on this endpoint's send
// direction; further sends would panic.
func (e *Endpoint) Closing() bool { return e.closing }

// SetCork sets the endpoint's explicit cork (TCP_CORK): while corked, the
// pump transmits only full MSS segments, holding a sub-MSS tail until more
// data arrives. Removing the cork flushes the tail. Callers should uncork
// when their write burst ends; a held tail otherwise flushes only on
// Drain, Close, or send-buffer pressure (a full window with nothing in
// flight, where holding would wedge the blocked sender).
func (e *Endpoint) SetCork(on bool) {
	e.corked = on
	if !on {
		e.wakePump()
	}
}

// Send queues a payload for transmission, blocking while the socket send
// buffer is full — payload is admitted piecewise as space frees, exactly
// like a blocking write(2). In reference mode the endpoint takes ownership
// of pl.Agg: a payload admitted whole queues as it is, and one admitted in
// pieces queues a Range per piece. done, if non-nil, runs when the whole
// payload is acknowledged.
func (e *Endpoint) Send(p *sim.Proc, pl Payload, done func()) {
	if e.closing {
		panic("netsim: send on closed endpoint")
	}
	n := pl.Len()
	if n == 0 {
		if pl.Agg != nil {
			pl.Agg.Release()
		}
		if done != nil {
			done()
		}
		return
	}
	whole := false
	for off := 0; off < n; {
		for e.sndBytes >= e.tss {
			e.sndWait.Wait(p)
		}
		take := n - off
		if room := e.tss - e.sndBytes; take > room {
			take = room
		}
		var piece Payload
		switch {
		case pl.Agg == nil:
			piece.Data = pl.Data[off : off+take]
		case take == n:
			piece.Agg, whole = pl.Agg, true
		default:
			piece.Agg = pl.Agg.Range(off, take)
		}
		var cb func()
		if off+take == n {
			cb = done
		}
		e.sndBytes += take
		e.queued += take
		if !e.refMode {
			e.reserveSock()
		}
		item := sendItem{pl: piece, done: cb}
		if e.host.costs.OnCharge != nil {
			item.bind = p.Attrib()
		}
		e.sndQ.push(item)
		e.wakePump()
		off += take
	}
	if pl.Agg != nil && !whole {
		pl.Agg.Release() // admitted pieces hold their own references
	}
}

// reserveSock adjusts TagSockBuf page accounting to current occupancy.
func (e *Endpoint) reserveSock() {
	if e.host.vm == nil {
		return
	}
	want := mem.PagesFor(e.sndBytes)
	if want > e.sockPages {
		e.host.vm.Reserve(mem.TagSockBuf, want-e.sockPages)
		e.sockPages = want
	} else if want < e.sockPages {
		e.host.vm.Release(mem.TagSockBuf, e.sockPages-want)
		e.sockPages = want
	}
}

func (e *Endpoint) wakePump() {
	if e.pumpIdle {
		e.pumpIdle = false
		e.pump.Unpark()
	}
}

// startPump launches the endpoint's sender process.
func (e *Endpoint) startPump() {
	e.pump = e.host.eng.Go(e.host.Name+".snd", func(p *sim.Proc) {
		e.runPump(p)
	})
}

// runPump drains the send queue into MSS-sized segments, charges
// per-packet protocol and checksum work, serializes on the wire, and
// schedules delivery after the propagation delay. The pump corks: adjacent
// send items gather into one segment instead of each item becoming its own
// (possibly undersized) packet, and a sub-MSS tail is held back while the
// endpoint is explicitly corked or while unacknowledged segments are still
// in flight (Nagle-style auto-cork) — more data or the draining acks will
// fill it. Close flushes everything.
func (e *Endpoint) runPump(p *sim.Proc) {
	costs := e.host.costs
	for {
		if e.sndQ.len() == 0 {
			if e.closing && !e.finSent && e.ackFIFO.len() == 0 {
				e.finSent = true
				e.transmitFIN(p)
				return
			}
			if e.finSent {
				return
			}
			e.pumpIdle = true
			p.Park()
			continue
		}
		if e.holdTail() {
			// Corked sub-MSS tail: park until new data, the flushing
			// uncork, the last ack, or Close arrives.
			e.pumpIdle = true
			p.Park()
			continue
		}
		e.emitSegment(p, costs)
	}
}

// holdTail reports whether a sub-MSS queue tail should wait for more data:
// while unacknowledged segments are in flight (Nagle-style auto-cork —
// their acks are guaranteed, so progress is too) or while the endpoint is
// explicitly corked. An explicit cork yields under buffer pressure — a
// full window with nothing in flight means no ack will ever come and a
// sender blocked in Send cannot reach its uncork, so holding would
// deadlock; TCP_CORK likewise flushes when the send buffer fills.
func (e *Endpoint) holdTail() bool {
	if e.queued >= MSS || e.closing || e.flush {
		return false
	}
	if e.ackFIFO.len() > 0 {
		return true
	}
	return e.corked && e.sndBytes < e.tss
}

// emitSegment gathers adjacent send items into one segment — the tail of
// one item plus whole following items, mixing copy and reference pieces —
// charges its protocol work, and puts it on the wire. Without offload the
// segment is one MSS-sized chunk, exactly the pre-offload pump. With LSO
// it is a super-segment of up to SuperSeg/MSS chunks whose fixed protocol
// work (mbuf, packet path, wire emit) is charged once, plus a small
// per-chunk segmentation residual; sequence space stays chunk-granular so
// faults and acks inside the super-segment resolve per MSS. Items whose
// last byte is admitted attach their done callbacks to their chunk.
func (e *Endpoint) emitSegment(p *sim.Proc, costs *sim.CostModel) {
	rec := e.host.newRecord(e.sndNxt)
	// Attribute the segment's wire and checksum work to the request that
	// queued its head item: the pump proc temporarily wears the sender's
	// binding so the charge hook resolves it. Free when no hook is set.
	var bind interface{}
	if costs.OnCharge != nil && e.sndQ.len() > 0 {
		bind = e.sndQ.front().bind
		p.SetAttrib(bind)
		defer p.SetAttrib(nil)
	}
	maxChunks := 1
	if e.host.offload {
		maxChunks = e.host.superSeg / MSS
	}
	cpu := costs.MbufAlloc + costs.Packet
	for len(rec.chunks) < maxChunks && e.sndQ.len() > 0 {
		if len(rec.chunks) > 0 && e.queued-rec.n < MSS && !e.closing && !e.flush {
			// Nagle inside the super-segment: a sub-MSS tail chunk waits
			// for more data or the draining acks, exactly as it would
			// have as a standalone segment.
			break
		}
		ck := rec.addChunk(rec.seq + int64(rec.n))
		for ck.n < MSS && e.sndQ.len() > 0 {
			item := e.sndQ.front()
			take := item.pl.Len() - item.off
			if room := MSS - ck.n; take > room {
				take = room
			}
			if item.pl.Agg != nil {
				ck.addRef(item.pl.Agg, item.off, take)
				if e.host.ck == nil {
					cpu += costs.Cksum(take)
				}
			} else {
				ck.pieces = append(ck.pieces, segPiece{n: take, data: item.pl.Data[item.off : item.off+take]})
				cpu += costs.Cksum(take)
			}
			item.off += take
			ck.n += take
			if item.off == item.pl.Len() {
				if item.done != nil {
					ck.dones = append(ck.dones, item.done)
				}
				if item.pl.Agg != nil {
					item.pl.Agg.Release() // segment pieces hold their own references
				}
				e.sndQ.pop()
			}
		}
		rec.n += ck.n
	}
	if len(rec.chunks) > 1 {
		cpu += sim.Duration(len(rec.chunks)-1) * costs.SegChunk
	}
	e.queued -= rec.n
	if e.queued == 0 {
		e.flush = false // the push is complete; the cork holds again
	}
	e.host.Use(p, cpu)
	if e.host.ck != nil {
		// Checksum cache: only cold slices cost CPU (§3.9); the cache
		// charges p internally for misses, per gathered ref piece.
		for _, ck := range rec.chunks {
			for _, pc := range ck.pieces {
				if pc.run != nil {
					e.host.ck.Partial(p, costs, pc.run)
				}
			}
		}
	}
	rec.sent = e.host.eng.Now()
	e.sndNxt += int64(rec.n)
	e.ackFIFO.push(rec)
	costs.EmitWire(int64(rec.n), bind)
	e.piggybackAck()
	e.transmitData(p, rec)
	e.armRTO()

	e.host.pktsOut++
	e.host.segsOut += int64(len(rec.chunks))
	e.host.bytesOut += int64(rec.n)
}

// wireTime is a segment's total serialization time: each MSS chunk goes
// on the wire as its own packet (the NIC segments a super-segment back
// into MSS frames), so per-chunk header and framing overhead is paid in
// wire time even when the CPU charged the protocol path only once.
func (e *Endpoint) wireTime(chunks []segChunk) sim.Duration {
	var d sim.Duration
	for _, ck := range chunks {
		d += e.link.txTime(ck.n + HeaderLen)
	}
	return d
}

// transmitData serializes one data segment on the wire and schedules its
// delivery at the peer — unless the fault plan drops it (the wire time is
// still spent: the segment was transmitted; it just never arrives) or
// corrupts it (it arrives flagged so the receiver's checksum verification
// rejects it).
func (e *Endpoint) transmitData(p *sim.Proc, rec *ackRecord) {
	e.link.wire[e.dir].Use(p, e.wireTime(rec.chunks))
	e.scheduleDelivery(rec.chunks)
}

// deliveredChunk is one MSS-granular wire chunk of an arriving (possibly
// super-) segment, with its judged fate. A dropped chunk simply isn't in
// the arrival; the chunks behind the hole still arrive and surface as
// out-of-order at the receiver.
type deliveredChunk struct {
	seq     int64
	n       int
	pieces  []segPiece
	corrupt bool
}

// scheduleDelivery judges each chunk's fate at the transmit instant and
// schedules the survivors' arrival after the propagation delay — one
// receive event per (super-)segment, however many chunks it carries.
func (e *Endpoint) scheduleDelivery(chunks []segChunk) {
	now := e.host.eng.Now()
	a := e.link.newArrival()
	for _, ck := range chunks {
		switch e.link.faults.judge(now) {
		case segDrop:
		case segCorrupt:
			a.chunks = append(a.chunks, deliveredChunk{seq: ck.seq, n: ck.n, pieces: ck.pieces, corrupt: true})
		default:
			a.chunks = append(a.chunks, deliveredChunk{seq: ck.seq, n: ck.n, pieces: ck.pieces})
		}
	}
	if len(a.chunks) == 0 {
		e.link.freeArrival(a)
		return
	}
	a.to = e.peer
	e.host.eng.Arm(&a.tm, now.Add(e.link.delay), a.step)
}

// armRTO starts the retransmission timer, a full RTO from now, when
// in-flight segments exist on a faulty wire and it is not running. It
// re-keys the endpoint's one timer in place, so arming allocates nothing.
// Reliable wires never arm it: delivery is guaranteed by construction, so
// the fault-free fast path stays timer-free.
func (e *Endpoint) armRTO() {
	if !e.faulty() || e.ackFIFO.len() == 0 {
		return
	}
	lx := e.loss()
	if lx.rtoTimer.Pending() {
		return
	}
	if lx.rto == 0 {
		lx.rto = initRTO
	}
	if lx.rtoStep == nil {
		lx.rtoStep = e.onRTO
	}
	e.host.eng.Wheel().Reset(&lx.rtoTimer, lx.rto, lx.rtoStep)
}

// onRTO fires when the oldest in-flight segment's ack is overdue: it
// resends the window's first unacked chunk, doubles the timeout, and
// re-arms. Partial acks then resend any further holes up to the recovery
// point, one per ack, as after a fast retransmit.
func (e *Endpoint) onRTO() {
	if e.ackFIFO.len() == 0 {
		return
	}
	lx := e.lx
	lx.rto *= 2
	if lx.rto > maxRTO {
		lx.rto = maxRTO
	}
	lx.recoverUntil = e.sndNxt
	e.retransmit()
	e.host.eng.Wheel().Reset(&lx.rtoTimer, lx.rto, lx.rtoStep)
}

// retransmit re-sends the window's first unacknowledged chunk — the one
// the duplicate acks, the partial ack or the timeout says is lost — from
// engine context. Its stored pieces go back on the wire as-is: the payload
// copy (copy mode) was charged at admission and is NOT re-charged; ref
// pieces re-checksum through the warm checksum cache (one lookup per
// piece) or pay a full pass when no cache exists, exactly like the first
// transmission's cold/warm split. No new buffer references are taken — the
// ack record's are re-used. The resend carries a copy of the chunk
// header, so an ack that trims or recycles the record while the charge
// queues cannot change it; such a resend arrives below the receiver's
// rcvNxt, and its pieces and runs are never read.
func (e *Endpoint) retransmit() {
	if lx := e.loss(); !lx.inStall {
		lx.inStall = true
		lx.stallStart = e.host.eng.Now()
	}
	costs := e.host.costs
	rec := *e.ackFIFO.front()
	rec.retx = true
	snap := []segChunk{rec.unacked()[0]}
	cpu := costs.MbufAlloc + costs.Packet
	for _, pc := range snap[0].pieces {
		if pc.run != nil && e.host.ck != nil {
			cpu += costs.CksumLookup // cached since the first transmission
		} else {
			cpu += costs.Cksum(pc.n)
		}
	}
	e.host.charge(cpu, func() {
		e.link.wire[e.dir].UseAsync(e.wireTime(snap), func() {
			e.scheduleDelivery(snap)
		})
		n := int64(snap[0].n)
		e.host.pktsOut++
		e.host.segsOut++
		e.host.bytesOut += n
		e.host.retransSegs++
		e.host.retransBytes += n
	})
}

// transmitFIN sends the half-close marker.
func (e *Endpoint) transmitFIN(p *sim.Proc) {
	link := e.link
	e.host.Use(p, e.host.costs.Packet/2)
	link.wire[e.dir].Use(p, link.txTime(HeaderLen))
	peer := e.peer
	e.host.eng.After(link.delay, func() {
		peer.host.charge(peer.host.costs.Packet/2, func() {
			peer.rcvClosed = true
			peer.rcvWait.Wake(-1)
			if peer.rcvNotify != nil {
				peer.rcvNotify()
			}
		})
	})
}

// arrival carries one data (super-)segment to its receiver on one
// embedded timer, in three stages: the propagation delay, the receiver's
// interrupt-level CPU charge (rxCost), then deliver. step is bound once,
// when the arrival is first allocated. After the last stage the arrival
// returns to its link's free list, so nothing may keep a pointer to it.
type arrival struct {
	tm      sim.Timer
	step    func()
	link    *Link
	charged bool // the CPU charge is queued; deliver is next
	to      *Endpoint
	chunks  []deliveredChunk
}

// run is the arrival's timer callback: first it queues the receive
// charge, then it delivers.
func (a *arrival) run() {
	e := a.to
	if !a.charged {
		a.charged = true
		e.host.eng.Arm(&a.tm, e.host.chargeDone(e.rxCost(a.chunks)), a.step)
		return
	}
	e.deliver(a.chunks)
	a.link.freeArrival(a)
}

// newArrival returns an empty arrival, reusing a free one when it can.
func (l *Link) newArrival() *arrival {
	if n := len(l.arrivals); n > 0 {
		a := l.arrivals[n-1]
		l.arrivals = l.arrivals[:n-1]
		return a
	}
	a := &arrival{link: l}
	a.step = a.run
	return a
}

// freeArrival takes back an arrival whose last stage has run, or that
// was never armed.
func (l *Link) freeArrival(a *arrival) {
	a.charged, a.to = false, nil
	a.chunks = a.chunks[:0]
	l.arrivals = append(l.arrivals, a)
}

// rxCost is the receive work one arrival event charges: interrupt and
// early-demultiplexing work and checksum verification, once per event
// however many MSS chunks it carries (the GRO half of segment offload;
// without offload each event is one chunk, exactly the pre-offload
// receive path).
func (e *Endpoint) rxCost(chunks []deliveredChunk) sim.Duration {
	costs := e.host.costs
	total := 0
	for _, ck := range chunks {
		total += ck.n
	}
	cpu := costs.Interrupt + costs.Packet + costs.Demux + costs.Cksum(total)
	if len(chunks) > 1 {
		cpu += sim.Duration(len(chunks)-1) * costs.SegChunk
	}
	return cpu
}

// deliver runs once the receiving host's CPU has done a data
// (super-)segment's rxCost: it queues the accepted pieces, wakes readers,
// and returns the cumulative acknowledgment to the sender. The Agg/Data
// distinction each piece's sender chose survives coalescing.
//
// Per chunk: the next expected chunk (seq == rcvNxt) is accepted, along
// with any chunks on the reassembly queue it makes contiguous. A chunk
// above rcvNxt (a predecessor was lost) goes on the reassembly queue,
// and the current cumulative ack is repeated immediately — never
// delayed — which the sender counts toward fast retransmit. A corrupted
// chunk is discarded unacknowledged AFTER the checksum pass that caught
// it was paid. A duplicate (below rcvNxt, or already queued: a spurious
// retransmission) is discarded and re-acked at once with the dsack flag,
// so the sender does not count it as a sign of loss (D-SACK, RFC 2883). A
// duplicate's pieces are never read: its sender may have recycled them
// already. An arrival that fills a hole is acked at once (RFC 5681), so
// recovery never waits out the ack delay.
func (e *Endpoint) deliver(chunks []deliveredChunk) {
	e.host.pktsIn++
	advanced, filled, ooo, dup := false, false, false, false
	for _, ck := range chunks {
		e.host.bytesIn += int64(ck.n)
		switch {
		case ck.corrupt:
			e.host.corruptIn++
		case ck.seq < e.rcvNxt:
			dup = true
		case ck.seq > e.rcvNxt:
			if e.stash(ck) {
				ooo = true
			} else {
				dup = true
			}
		default:
			e.rcvNxt += int64(ck.n)
			advanced = true
			if !e.rcvShut {
				e.queueDeliveries(ck.pieces)
			}
			if e.unstash() {
				filled = true
			}
		}
	}
	if advanced && !e.rcvShut {
		e.rcvWait.Wake(-1)
		if e.rcvNotify != nil {
			e.rcvNotify()
		}
	}
	switch {
	case ooo || filled:
		e.flushAck(false)
	case dup:
		e.flushAck(true)
	case advanced:
		if e.host.offload {
			e.scheduleAck()
		} else {
			e.sendAck(e.rcvNxt, false)
		}
	}
}

// reasmChunk is one out-of-order chunk on the reassembly queue, with the
// receiver's own deliveries of its pieces: an aggregate of each ref
// piece's run, so holding it costs no copy, or a copy of copy-mode bytes,
// as the receive queue keeps them. After a receive shutdown only its
// sequence range is kept, so that acknowledgments still cover it once the
// hole fills.
type reasmChunk struct {
	seq  int64
	n    int
	dels []Delivery
}

// stash puts an out-of-order chunk on the reassembly queue and reports
// whether it was new; a chunk already queued is a duplicate.
func (e *Endpoint) stash(ck deliveredChunk) bool {
	lx := e.loss()
	i, found := slices.BinarySearchFunc(lx.reasm, ck.seq, func(r reasmChunk, seq int64) int {
		return cmp.Compare(r.seq, seq)
	})
	if found {
		return false
	}
	rc := reasmChunk{seq: ck.seq, n: ck.n}
	if !e.rcvShut {
		rc.dels = make([]Delivery, len(ck.pieces))
		for j, pc := range ck.pieces {
			rc.dels[j] = pc.own()
		}
	}
	lx.reasm = slices.Insert(lx.reasm, i, rc)
	return true
}

// unstash moves the reassembly queue's chunks that rcvNxt has reached onto
// the receive queue, advancing rcvNxt past them, and reports whether any
// moved.
func (e *Endpoint) unstash() bool {
	if e.lx == nil {
		return false
	}
	reasm := e.lx.reasm
	k := 0
	for ; k < len(reasm) && reasm[k].seq == e.rcvNxt; k++ {
		rc := &reasm[k]
		e.rcvNxt += int64(rc.n)
		for _, d := range rc.dels {
			if tail := e.mergeTail(d.Agg != nil); tail == nil {
				e.rcvQ.push(d)
			} else if d.Agg != nil {
				tail.Agg.Concat(d.Agg)
				d.Agg.Release()
			} else {
				tail.Data = append(tail.Data, d.Data...)
			}
		}
	}
	if k == 0 {
		return false
	}
	n := copy(reasm, reasm[k:])
	clear(reasm[n:])
	e.lx.reasm = reasm[:n]
	return true
}

// queueDeliveries appends one accepted chunk's pieces to the receive
// queue. With offload on, contiguous in-order arrivals of the same
// representation coalesce into the queue's tail delivery (the GRO merge):
// the reader drains a whole super-segment — or several — in one Recv
// instead of one per MSS.
func (e *Endpoint) queueDeliveries(pieces []segPiece) {
	for _, pc := range pieces {
		if tail := e.mergeTail(pc.run != nil); tail == nil {
			e.rcvQ.push(pc.own())
		} else if pc.run != nil {
			appendRun(tail.Agg, pc.run) // tail is rcvQ's own aggregate; safe to grow
		} else {
			tail.Data = append(tail.Data, pc.data...)
		}
	}
}

// mergeTail returns the receive queue's tail delivery when, with offload
// on, an arriving piece of the same representation (ref or copy)
// coalesces into it, and nil when the piece queues as its own delivery.
// Merging is bounded at SuperSeg so an idle reader cannot accrete one
// unbounded delivery.
func (e *Endpoint) mergeTail(ref bool) *Delivery {
	if !e.host.offload || e.rcvQ.len() == 0 {
		return nil
	}
	tail := e.rcvQ.back()
	if tail.Len() >= e.host.superSeg || (tail.Agg != nil) != ref {
		return nil
	}
	return tail
}

// own returns the receiver's own delivery of a piece: a new aggregate of
// a ref piece's run, with references of its own (the sender's are released
// on ack), or, in copy mode, the wire bytes landed in receive socket
// buffers, which a later Recv copies out to the application.
func (pc segPiece) own() Delivery {
	if pc.run != nil {
		a := core.NewAgg()
		appendRun(a, pc.run)
		return Delivery{Agg: a}
	}
	return Delivery{Data: append([]byte(nil), pc.data...)}
}

// appendRun appends a ref piece's run to a, taking a reference per slice.
func appendRun(a *core.Agg, run []core.Slice) {
	for _, s := range run {
		a.Append(s)
	}
}

// ackEvent carries one cumulative ack back to the data sender on one
// embedded timer, in three stages: the ack's wire time plus the
// propagation delay, the sender's CPU charge, then acked. A piggybacked
// ack rode a data segment, so it skips the charge. dsack marks an ack
// that repeats ackNo because a duplicate arrived. step is bound once,
// when the event is first allocated. After the last stage the event
// returns to its link's free list, so nothing may keep a pointer to it.
type ackEvent struct {
	tm      sim.Timer
	step    func()
	link    *Link
	charged bool // the sender's CPU charge is queued, or none is due
	dsack   bool
	to      *Endpoint
	ackNo   int64
}

// run is the ack's timer callback: first it queues the sender's charge,
// unless the ack was piggybacked, then it hands the ack to acked.
func (a *ackEvent) run() {
	to := a.to
	if !a.charged {
		a.charged = true
		to.host.eng.Arm(&a.tm, to.host.chargeDone(to.host.costs.Packet/2), a.step)
		return
	}
	ackNo, dsack := a.ackNo, a.dsack
	a.link.freeAck(a)
	to.acked(ackNo, dsack)
}

// ackTo arms an ack of ackNo that reaches the data sender to at instant
// at. A piggybacked ack costs the sender no ack processing.
func (l *Link) ackTo(to *Endpoint, ackNo int64, at sim.Time, piggybacked, dsack bool) {
	var a *ackEvent
	if n := len(l.acks); n > 0 {
		a = l.acks[n-1]
		l.acks = l.acks[:n-1]
	} else {
		a = &ackEvent{link: l}
		a.step = a.run
	}
	a.to, a.ackNo, a.charged, a.dsack = to, ackNo, piggybacked, dsack
	l.eng.Arm(&a.tm, at, a.step)
}

// freeAck takes back an ack event whose last stage is running.
func (l *Link) freeAck(a *ackEvent) {
	a.to = nil
	l.acks = append(l.acks, a)
}

// sendAck returns a cumulative acknowledgment (every byte below ackNo has
// arrived) to the peer — the data sender — as its own ack packet, counted
// on the host's ack meter. dsack marks it as reporting a duplicate.
func (e *Endpoint) sendAck(ackNo int64, dsack bool) {
	e.host.acksOut++
	link := e.link
	done := link.wire[e.dir].UseAsync(link.txTime(AckLen), nil)
	link.ackTo(e.peer, ackNo, done.Add(link.delay), false, dsack)
}

// scheduleAck notes one in-order receive event under the delayed-ack
// policy: every DefaultAckEvery-th event acks immediately; otherwise the
// wheel timer guarantees an ack within DefaultAckDelay, which bounds the
// classic Nagle/delayed-ack stall (a sender holding a sub-MSS tail for
// this ack waits out the delay, never deadlocks).
func (e *Endpoint) scheduleAck() {
	lx := e.loss()
	lx.ackEvents++
	if lx.ackEvents >= DefaultAckEvery {
		e.flushAck(false)
		return
	}
	if !lx.ackTimer.Pending() {
		if lx.ackStep == nil {
			lx.ackStep = e.onAckDelay
		}
		e.host.eng.Wheel().Reset(&lx.ackTimer, DefaultAckDelay, lx.ackStep)
	}
}

// onAckDelay fires when a delayed ack times out on the wheel.
func (e *Endpoint) onAckDelay() {
	if e.lx.ackEvents > 0 {
		e.flushAck(false)
	}
}

// flushAck sends the cumulative ack now and clears delayed-ack state.
// With delayed acks off this is exactly sendAck.
func (e *Endpoint) flushAck(dsack bool) {
	if lx := e.lx; lx != nil {
		lx.ackEvents = 0
		lx.ackTimer.Cancel()
	}
	e.sendAck(e.rcvNxt, dsack)
}

// piggybackAck folds a pending delayed ack into a data segment this
// endpoint is emitting toward the data's sender: the segment's header
// carries the cumulative ack for free, so no separate ack packet, no ack
// wire time, and no ack processing charge — the request/response pattern
// delayed acks exist for. The ack information arrives after the
// propagation delay like the segment that carries it.
func (e *Endpoint) piggybackAck() {
	lx := e.lx
	if lx == nil || lx.ackEvents == 0 {
		return
	}
	lx.ackEvents = 0
	lx.ackTimer.Cancel()
	e.link.ackTo(e.peer, e.rcvNxt, e.host.eng.Now().Add(e.link.delay), true, false)
}

// acked processes a cumulative acknowledgment: every segment wholly below
// ackNo releases its send-buffer space, buffer references, and done
// callbacks, in admission order. A duplicate ack (no progress) counts
// toward fast retransmit, unless dsack says it reports a duplicate rather
// than a hole; the third in a row resends the first unacked chunk without
// waiting out the RTO.
func (e *Endpoint) acked(ackNo int64, dsack bool) {
	if ackNo <= e.sndUna {
		// No progress. Three duplicate acks in a row signal a lost head
		// segment while later ones still arrive.
		if ackNo == e.sndUna && !dsack && e.ackFIFO.len() > 0 {
			lx := e.loss()
			lx.dupAcks++
			// Early retransmit (à la RFC 5827): a hole near the window's
			// tail can't gather three duplicate acks — there aren't three
			// segments behind it — so the threshold shrinks with the
			// outstanding count rather than waiting out the RTO.
			thresh := 3
			if n := e.ackFIFO.len(); n < 4 {
				thresh = n - 1
				if thresh < 1 {
					thresh = 1
				}
			}
			if lx.dupAcks >= thresh && e.sndUna >= lx.recoverUntil {
				lx.dupAcks = 0
				lx.recoverUntil = e.sndNxt
				e.host.fastRetrans++
				e.retransmit()
				e.restartRTO()
			}
		}
		return
	}
	if lx := e.lx; lx != nil {
		lx.dupAcks = 0
		if lx.inStall {
			lx.stallAccum += e.host.eng.Now().Sub(lx.stallStart)
			lx.inStall = false
		}
	}
	var freed int
	for e.ackFIFO.len() > 0 {
		rec := *e.ackFIFO.front()
		if rec.seq >= ackNo {
			break
		}
		if rec.end() <= ackNo {
			e.ackFIFO.pop()
			if !rec.retx && e.faulty() {
				e.sampleRTT(e.host.eng.Now().Sub(rec.sent))
			}
			freed += rec.trimAcked(rec.end())
			e.host.recycle(rec)
			continue
		}
		// Partial ack inside a super-segment: the receiver accepted a
		// chunk prefix up to a hole. Trim the acknowledged chunks so
		// retransmission re-sends only the chunk at the hole (no
		// whole-super-segment re-charge). Karn: no RTT sample until the
		// record fully acks.
		freed += rec.trimAcked(ackNo)
		break
	}
	e.sndUna = ackNo
	e.sndBytes -= freed
	lx := e.lx
	if lx != nil && e.sndUna < lx.recoverUntil {
		// A partial ack (NewReno, RFC 6582): the window moved but stopped
		// short of the recovery point. The resend queued on the wire
		// behind everything sent before it, so once it has filled its
		// hole, the chunk at the new sndUna was lost too: resend it now.
		// (After a spurious timeout the ack came from an original, and
		// this resends chunks still in flight, one per ack, as NewReno
		// does.)
		e.retransmit()
	}
	// Forward progress ends a loss episode: collapse any exponential
	// backoff back to the estimator's RTO. Karn's rule keeps retransmitted
	// windows out of the estimator, so without this reset a conn that
	// recovers through a few timeouts would keep its ratcheted-up timer
	// and pay seconds for the next stray drop.
	if lx != nil && lx.rto > 0 && lx.srtt > 0 {
		lx.rto = lx.srtt + 4*lx.rttvar
		if lx.rto < minRTO {
			lx.rto = minRTO
		}
	}
	if !e.refMode {
		e.reserveSock()
	}
	// One proc sends on an endpoint at a time, so wake order never matters.
	e.sndWait.Wake(-1)
	// The timer now guards the next-oldest in-flight segment, or nothing.
	e.restartRTO()
	// A draining ack FIFO can end an auto-cork hold (the queue's sub-MSS
	// tail flushes once nothing is in flight), and the last ack of a
	// closing endpoint releases the FIN.
	if e.sndQ.len() > 0 || (e.closing && e.ackFIFO.len() == 0) {
		e.wakePump()
	}
}

// restartRTO re-keys the retransmission timer to a full RTO from now for
// the current window (or cancels it when nothing is in flight).
func (e *Endpoint) restartRTO() {
	if e.lx != nil {
		e.lx.rtoTimer.Cancel()
	}
	e.armRTO()
}

// sampleRTT feeds one round-trip measurement into the Jacobson estimator
// and derives the next RTO. Only never-retransmitted segments are sampled
// (Karn's algorithm): a retransmitted segment's ack is ambiguous.
func (e *Endpoint) sampleRTT(rtt sim.Duration) {
	if rtt < 0 {
		return
	}
	lx := e.loss()
	if lx.srtt == 0 {
		lx.srtt = rtt
		lx.rttvar = rtt / 2
	} else {
		diff := rtt - lx.srtt
		if diff < 0 {
			diff = -diff
		}
		lx.rttvar += (diff - lx.rttvar) / 4
		lx.srtt += (rtt - lx.srtt) / 8
	}
	lx.rto = lx.srtt + 4*lx.rttvar
	if lx.rto < minRTO {
		lx.rto = minRTO
	}
	if lx.rto > maxRTO {
		lx.rto = maxRTO
	}
}

// Recv returns the next delivered chunk, blocking until data or the peer's
// half-close arrives. ok is false at end of stream and after a local
// receive shutdown.
func (e *Endpoint) Recv(p *sim.Proc) (Delivery, bool) {
	for e.rcvQ.len() == 0 {
		if e.rcvClosed || e.rcvShut {
			return Delivery{}, false
		}
		e.rcvWait.Wait(p)
	}
	return e.rcvQ.pop(), true
}

// ShutdownRecv abandons the endpoint's receive direction: queued deliveries
// and the reassembly queue's pieces release their buffer references,
// blocked readers return !ok, and future arrivals are discarded — but
// still acknowledged, so the peer's sender drains instead of
// retransmitting into the void. Descriptor close calls this so an
// abandoned connection cannot leak the aggregates queued (or still in
// flight) toward it.
func (e *Endpoint) ShutdownRecv() {
	if e.rcvShut {
		return
	}
	e.rcvShut = true
	for _, d := range e.rcvQ.items() {
		d.Release()
	}
	e.rcvQ = fifo[Delivery]{}
	if lx := e.lx; lx != nil {
		for i := range lx.reasm {
			for _, d := range lx.reasm[i].dels {
				d.Release()
			}
			lx.reasm[i].dels = nil
		}
	}
	e.rcvWait.Wake(-1)
	if e.rcvNotify != nil {
		e.rcvNotify()
	}
}

// Close half-closes the endpoint's send direction: queued data drains, then
// a FIN is sent. The teardown cost is charged to the closer.
func (e *Endpoint) Close(p *sim.Proc) {
	if e.closing {
		return
	}
	e.closing = true
	e.host.Use(p, e.host.costs.TCPTeardown)
	e.wakePump()
}

// RecvReady reports whether Recv right now would return without parking:
// a delivery is queued or the peer's FIN has arrived.
func (e *Endpoint) RecvReady() bool { return e.rcvQ.len() > 0 || e.rcvClosed }

// SetRecvNotify registers fn to fire whenever the receive side becomes
// ready (a delivery lands or the peer half-closes).
func (e *Endpoint) SetRecvNotify(fn func()) { e.rcvNotify = fn }

// StallTime reports total loss-recovery stall on this endpoint's send
// direction: time between a first retransmission and the ack that made
// forward progress again, including a still-open episode. Observability
// samples this before and after a blocking wait to carve the delta out
// of the waiting request's phase.
func (e *Endpoint) StallTime() sim.Duration {
	lx := e.lx
	if lx == nil {
		return 0
	}
	d := lx.stallAccum
	if lx.inStall {
		d += e.host.eng.Now().Sub(lx.stallStart)
	}
	return d
}

// PeerStallTime reports the peer sender's stall — the recovery time that
// delays this endpoint's reads.
func (e *Endpoint) PeerStallTime() sim.Duration { return e.peer.StallTime() }

// Drain blocks p until every admitted byte has been acknowledged. A drain
// is a push point: a sub-MSS tail held by an explicit cork is flushed
// first (the cork itself stays set), so Drain cannot wedge on data the
// pump is deliberately holding.
func (e *Endpoint) Drain(p *sim.Proc) {
	if e.queued > 0 {
		e.flush = true
		e.wakePump()
	}
	for e.sndBytes > 0 {
		e.sndWait.Wait(p)
	}
}

// fifo is a first-in first-out queue that reuses its backing array: a pop
// advances head instead of reslicing, and a push that would grow the
// array first slides the items back to its start once half of it is
// popped, so a steady stream runs in one array.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// items returns the queued items, oldest first.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

func (f *fifo[T]) front() *T { return &f.buf[f.head] }

func (f *fifo[T]) back() *T { return &f.buf[len(f.buf)-1] }

func (f *fifo[T]) push(x T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, x)
}

func (f *fifo[T]) pop() T {
	x := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return x
}
