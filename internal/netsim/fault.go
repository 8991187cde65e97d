package netsim

import "iolite/internal/sim"

// Fault injection. A FaultPlan attached to a Link (both directions) makes
// the wire lossy: data segments drop with a probability, arrive with
// corrupted payloads the receiver's checksum verification catches, or
// vanish wholesale during transient partition windows. Control segments — SYN, ACK, FIN — are exempt: the
// plan models a lossy data path, and selective recovery (conn.go) is
// exercised by data loss alone; cumulative acks make individual ack loss
// invisible anyway.
//
// Everything is deterministic: each plan carries its own seeded PRNG, so a
// chaos run replays exactly.

// PartitionWindow is one transient outage: every data segment offered to
// the wire in [From, To) is dropped.
type PartitionWindow struct {
	From, To sim.Time
}

// FaultPlan describes the faults to inject. The zero value injects
// nothing; probabilities are per data segment in [0, 1].
type FaultPlan struct {
	// DropProb drops the segment silently: it never arrives, no ack
	// returns, and the sender's RTO recovers it.
	DropProb float64
	// CorruptProb flips payload bits in flight: the segment arrives and
	// pays its receive-side work, but checksum verification rejects it —
	// it is discarded unacknowledged, exactly like a drop, except the
	// receiver has already paid the interrupt and checksum work.
	CorruptProb float64
	// Partitions are transient outage windows during which every data
	// segment is dropped.
	Partitions []PartitionWindow
	// Seed makes the plan's coin flips reproducible (0 picks a fixed
	// default).
	Seed uint64

	// DropList drops specific segments deterministically: the plan keeps a
	// running count of segments it has judged, and drops the ones whose
	// 1-based judge-order index appears here. With offload on, judging is
	// per MSS chunk, so a DropList entry punches an MSS-granular hole in
	// a super-segment — the hook the recovery tests use.
	DropList []int64

	rng    uint64
	judged int64

	// Counters: segments the plan dropped (incl. partition drops) and
	// corrupted.
	dropped   int64
	corrupted int64
}

// splitmix64 advances the plan's PRNG one step.
func (fp *FaultPlan) next() uint64 {
	if fp.rng == 0 {
		fp.rng = fp.Seed
		if fp.rng == 0 {
			fp.rng = 0x9e3779b97f4a7c15
		}
	}
	fp.rng += 0x9e3779b97f4a7c15
	z := fp.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// flip returns true with probability prob.
func (fp *FaultPlan) flip(prob float64) bool {
	if prob <= 0 {
		return false
	}
	return float64(fp.next()>>11)/(1<<53) < prob
}

// segFate is what the plan decided for one segment.
type segFate int

const (
	segOK segFate = iota
	segDrop
	segCorrupt
)

// judge decides one data segment's fate at transmit instant now.
func (fp *FaultPlan) judge(now sim.Time) segFate {
	if fp == nil {
		return segOK
	}
	fp.judged++
	for _, idx := range fp.DropList {
		if idx == fp.judged {
			fp.dropped++
			return segDrop
		}
	}
	for _, w := range fp.Partitions {
		if now >= w.From && now < w.To {
			fp.dropped++
			return segDrop
		}
	}
	if fp.flip(fp.DropProb) {
		fp.dropped++
		return segDrop
	}
	if fp.flip(fp.CorruptProb) {
		fp.corrupted++
		return segCorrupt
	}
	return segOK
}

// SetFaultPlan attaches a fault plan to the link; both directions consult
// it. nil restores the reliable wire.
func (l *Link) SetFaultPlan(fp *FaultPlan) { l.faults = fp }

// faulty reports whether a plan could touch this endpoint's segments —
// the gate for arming retransmission machinery. On a reliable wire
// (delivery guaranteed by construction) the sender runs timer-free,
// keeping the fault-free fast path identical to the pre-fault simulator.
func (e *Endpoint) faulty() bool {
	return e.link.faults != nil
}
