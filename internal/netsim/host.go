// Package netsim is the network substrate: hosts, links with bandwidth and
// delay (including the §5.7 "delay router"), and a simplified TCP-like
// reliable transport whose send path runs in either copy mode (BSD-style
// socket buffers holding private copies of the data) or reference mode
// (mbufs encapsulating IO-Lite buffers out of line, §4.1, with early
// demultiplexing §3.6 and checksum caching §3.9).
//
// Payload bytes really flow end to end, so tests verify both data integrity
// and the absence of copies on the IO-Lite path.
package netsim

import (
	"iolite/internal/cksum"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Protocol constants: Ethernet MTU minus TCP/IP headers, header sizes.
const (
	MSS        = 1460
	HeaderLen  = 40
	AckLen     = HeaderLen
	EthOverlay = 18 // Ethernet framing overhead per packet on the wire
)

// Segment-offload constants: an LSO super-segment gathers up to SuperSeg
// bytes of adjacent send pieces and is charged fixed protocol work once;
// the delayed-ack policy acks every DefaultAckEvery-th receive event or
// after DefaultAckDelay on the shared timer wheel, whichever comes first.
// DefaultAckDelay sits below minRTO so a delayed ack can never look like
// a loss to the retransmission machinery.
const (
	SuperSeg        = 64 << 10
	DefaultAckEvery = 2
	DefaultAckDelay = 100 * sim.Microsecond
)

// Host is one machine on the network.
type Host struct {
	Name  string
	eng   *sim.Engine
	costs *sim.CostModel

	// cpu serializes all protocol processing and (for servers) application
	// work on this host. A nil cpu models an uncharged host: the client
	// machines exist to generate load, not to be measured.
	cpu *sim.Resource

	// vm, when non-nil, accounts socket-buffer memory (copy-mode sends
	// reserve TagSockBuf pages until data is acknowledged).
	vm *mem.VM

	// ck, when non-nil, enables the cross-subsystem checksum cache for
	// reference-mode sends from this host.
	ck *cksum.Cache

	pktsOut, pktsIn   int64
	bytesOut, bytesIn int64

	// segsOut counts MSS-granular wire chunks (a super-segment carries
	// several; without offload segsOut == pktsOut) and acksOut the ack
	// packets this host put on the wire — together with pktsOut, the
	// full packet-economy picture.
	segsOut int64
	acksOut int64

	// offload enables LSO/GRO-style segment offload for this host's
	// endpoints: super-segment send gathering, coalesced receive events,
	// and the delayed-ack policy. superSeg caps the payload bytes one
	// charged super-segment gathers (up to superSeg/MSS full MSS chunks).
	offload  bool
	superSeg int

	// Recovery counters: data segments this host retransmitted (and their
	// payload bytes), dup-ack-triggered recovery rounds (vs timer-driven),
	// and received segments its checksum verification rejected.
	retransSegs, retransBytes int64
	fastRetrans               int64
	corruptIn                 int64

	// records holds the fully acknowledged ack records this host's
	// endpoints reuse for their next segments.
	records []*ackRecord
}

// NewHost creates a host. charged selects whether the host has a measured
// CPU; vm and ck may be nil.
func NewHost(eng *sim.Engine, costs *sim.CostModel, name string, charged bool, vm *mem.VM, ck *cksum.Cache) *Host {
	h := &Host{Name: name, eng: eng, costs: costs, vm: vm, ck: ck}
	if charged {
		h.cpu = sim.NewResource(eng, name+".cpu")
	}
	return h
}

// CPU returns the host's CPU resource (nil for uncharged hosts).
func (h *Host) CPU() *sim.Resource { return h.cpu }

// Use charges d of CPU time to proc p, queueing behind other work on this
// host. Free-CPU hosts advance p by d without contention so that client
// pacing still exists but is never the bottleneck.
func (h *Host) Use(p *sim.Proc, d sim.Duration) {
	if h.cpu != nil {
		h.cpu.Use(p, d)
		return
	}
	if d > 0 {
		p.Sleep(d)
	}
}

// charge accounts CPU work that is not attached to a blocked process
// (interrupt-level receive processing), then runs fn when the CPU gets to
// it.
func (h *Host) charge(d sim.Duration, fn func()) {
	h.eng.At(h.chargeDone(d), fn)
}

// chargeDone accounts d of such work and returns the instant the CPU
// gets to it, for a caller that arms its own timer there.
func (h *Host) chargeDone(d sim.Duration) sim.Time {
	if h.cpu != nil {
		return h.cpu.UseAsync(d, nil)
	}
	return h.eng.Now().Add(max(d, 0))
}

// SetOffload enables (or disables) LSO/GRO segment offload for this
// host's endpoints: send pumps gather up to SuperSeg bytes into one
// charged super-segment, receive events coalesce a super-segment's chunks
// into one charge and one reader wake-up, and acks run the delayed-ack
// policy (every DefaultAckEvery-th event or DefaultAckDelay, dup-acks
// immediate, outgoing data piggybacks).
func (h *Host) SetOffload(on bool) {
	h.offload = on
	h.superSeg = SuperSeg
}

// Offload reports whether segment offload is on for this host.
func (h *Host) Offload() bool { return h.offload }

// SegCapacity is the payload capacity of this host's charged transmit
// unit: the super-segment size with offload on, one MSS without — the
// denominator MeanSegFill measures against.
func (h *Host) SegCapacity() int {
	if h.offload {
		return h.superSeg
	}
	return MSS
}

// Stats reports packet and byte counters. pktsOut counts charged transmit
// units this host put on the wire — data segments, or super-segments with
// offload on (acks and FINs are not data segments).
func (h *Host) Stats() (pktsOut, pktsIn, bytesOut, bytesIn int64) {
	return h.pktsOut, h.pktsIn, h.bytesOut, h.bytesIn
}

// SegsOut reports the MSS-granular wire chunks this host transmitted
// (including retransmissions); equal to pktsOut when offload is off.
func (h *Host) SegsOut() int64 { return h.segsOut }

// AcksOut reports the ack packets this host transmitted. Piggybacked
// acks (riding an outgoing data segment under offload) are not packets
// and don't count.
func (h *Host) AcksOut() int64 { return h.acksOut }

// ResetMeters zeroes the packet, byte, and recovery counters, so a
// measurement window can exclude warmup traffic.
func (h *Host) ResetMeters() {
	h.pktsOut, h.pktsIn, h.bytesOut, h.bytesIn = 0, 0, 0, 0
	h.segsOut, h.acksOut = 0, 0
	h.retransSegs, h.retransBytes, h.fastRetrans, h.corruptIn = 0, 0, 0, 0
}

// RetransStats reports data segments this host retransmitted and the
// payload bytes they re-carried — the recovery-overhead meter. Retransmitted
// segments also count in pktsOut/bytesOut: they really occupy the wire.
func (h *Host) RetransStats() (segs, bytes int64) {
	return h.retransSegs, h.retransBytes
}

// MeanSegFill reports the mean payload fill of this host's charged
// transmit units as a fraction of their capacity (1.0 = every unit full):
// against the MSS normally, against the super-segment size when offload
// is on — a super-segment is one charged unit, so measuring it against
// one MSS would read as >100% fill. 0 when the host has sent nothing.
func (h *Host) MeanSegFill() float64 {
	if h.pktsOut == 0 {
		return 0
	}
	return float64(h.bytesOut) / (float64(h.pktsOut) * float64(h.SegCapacity()))
}

// Link is a full-duplex point-to-point link: each direction has independent
// serialization at the configured bandwidth, plus a one-way propagation
// delay. The Figure 12 delay router is modelled by raising Delay.
type Link struct {
	eng   *sim.Engine
	bps   int64
	delay sim.Duration
	wire  [2]*sim.Resource
	ends  [2]*Host

	// faults, when non-nil, injects faults into data segments in both
	// directions (see fault.go).
	faults *FaultPlan

	// arrivals and acks are the free wire events that data segments and
	// acks crossing this link reuse.
	arrivals []*arrival
	acks     []*ackEvent
}

// NewLink connects a and b with the given bit rate and one-way delay.
func NewLink(eng *sim.Engine, a, b *Host, bitsPerSec int64, delay sim.Duration) *Link {
	return &Link{
		eng:   eng,
		bps:   bitsPerSec,
		delay: delay,
		wire:  [2]*sim.Resource{sim.NewResource(eng, "wire0"), sim.NewResource(eng, "wire1")},
		ends:  [2]*Host{a, b},
	}
}

// txTime is the serialization time of n payload+header bytes.
func (l *Link) txTime(n int) sim.Duration {
	bits := int64(n+EthOverlay) * 8
	return sim.Duration(bits * 1e9 / l.bps)
}

// dirFrom returns the wire index for transmissions originating at h.
func (l *Link) dirFrom(h *Host) int {
	if h == l.ends[0] {
		return 0
	}
	return 1
}
