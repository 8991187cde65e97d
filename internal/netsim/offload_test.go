package netsim

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// offloadTransfer runs one server→client ref-mode transfer of want with
// segment offload enabled on both hosts, under an optional link fault
// plan, and returns the received bytes and the rig for meter inspection.
func offloadTransfer(t *testing.T, fp *FaultPlan, want []byte, tss int) (got []byte, r *rig) {
	t.Helper()
	ck := cksum.NewCache(0)
	r = newRig(true, ck, 100*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	if fp != nil {
		r.link.SetFaultPlan(fp)
	}
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true, Tss: tss})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	return got, r
}

// TestOffloadPacketEconomy pins the tentpole economics: with LSO/GRO on,
// the same payload crosses the wire in far fewer charged transmit units
// (super-segments vs per-MSS packets), the receiver acks at most every
// second event instead of every segment, and the wire itself still
// carries the same MSS-granular chunks.
func TestOffloadPacketEconomy(t *testing.T) {
	want := pattern(300 << 10)

	offGot, _, off := refTransfer(t, nil, want)
	if !bytes.Equal(offGot, want) {
		t.Fatal("offload-off baseline corrupted")
	}
	onGot, on := offloadTransfer(t, nil, want, 0)
	if !bytes.Equal(onGot, want) {
		t.Fatalf("offload transfer corrupted: got %d bytes, want %d", len(onGot), len(want))
	}

	offPkts, _, _, _ := off.server.Stats()
	onPkts, _, _, _ := on.server.Stats()
	if onPkts*2 >= offPkts {
		t.Fatalf("offload charged %d transmit units vs %d without — expected <half", onPkts, offPkts)
	}
	// The NIC re-segments super-segments into the same MSS wire chunks.
	if on.server.SegsOut() != offPkts {
		t.Fatalf("offload put %d MSS chunks on the wire, offload-off %d — same payload, same chunks", on.server.SegsOut(), offPkts)
	}
	// Delayed acks: at most one ack per DefaultAckEvery receive events (plus
	// the timer flushes), against one per segment without offload.
	offAcks, onAcks := off.client.AcksOut(), on.client.AcksOut()
	if offAcks == 0 || onAcks == 0 {
		t.Fatalf("ack meters silent: off %d, on %d", offAcks, onAcks)
	}
	if onAcks*2 > offAcks {
		t.Fatalf("delayed acks sent %d acks vs %d without offload — expected ≤half", onAcks, offAcks)
	}
	// MeanSegFill measures against the super-segment capacity: never >1.
	if fill := on.server.MeanSegFill(); fill <= 0 || fill > 1 {
		t.Fatalf("offload MeanSegFill %v out of (0, 1]", fill)
	}
}

// TestNagleDelayedAckNoDeadlock pins the classic interaction: a sub-MSS
// tail held by the Nagle auto-cork waits for an ack the receiver is
// delaying. The DefaultAckDelay wheel timer must break the stall — the
// transfer completes, and in far less time than a retransmission timeout
// would take (nothing is ever retransmitted on this reliable wire).
func TestNagleDelayedAckNoDeadlock(t *testing.T) {
	want := pattern(MSS + 200) // one full chunk + a corked tail
	got, r := offloadTransfer(t, nil, want, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("corked tail never flushed: got %d bytes, want %d", len(got), len(want))
	}
	if elapsed := time.Duration(r.eng.Now()); elapsed > 5*time.Millisecond {
		t.Fatalf("transfer took %v — Nagle/delayed-ack stall not bounded by AckDelay", elapsed)
	}
	if segs, _ := r.server.RetransStats(); segs != 0 {
		t.Fatalf("%d retransmissions on a reliable wire", segs)
	}
}

// fastOffloadTransfer is offloadTransfer on a 40 Gb/s, 10 µs wire — fast
// enough that acks beat the 200 µs minimum RTO, so the recovery tests
// below observe ack-driven behavior instead of timer cascades. A nonzero
// superSeg overrides the super-segment cap on both hosts.
func fastOffloadTransfer(t *testing.T, fp *FaultPlan, want []byte, tss, superSeg int) (got []byte, r *rig) {
	t.Helper()
	ck := cksum.NewCache(0)
	r = newRig(true, ck, 100*time.Microsecond)
	r.link = NewLink(r.eng, r.client, r.server, 40_000_000_000, 10*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	if superSeg > 0 {
		r.server.superSeg, r.client.superSeg = superSeg, superSeg
	}
	if fp != nil {
		r.link.SetFaultPlan(fp)
	}
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true, Tss: tss})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	return got, r
}

// TestOffloadHoleRetransmit drops exactly one MSS chunk inside a
// super-segment (judge-order DropList) and pins MSS-granular recovery:
// the receiver accepts the prefix and holds the chunks behind the hole on
// its reassembly queue, the ack of the prefix trims it off the record,
// and the retransmission re-sends only the lost chunk — never the whole
// super-segment, nor the chunks that already arrived.
func TestOffloadHoleRetransmit(t *testing.T) {
	const chunks = 5
	want := pattern(chunks * MSS)
	fp := &FaultPlan{DropList: []int64{2}} // the 2nd judged chunk
	got, r := fastOffloadTransfer(t, fp, want, 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("hole not recovered: got %d bytes, want %d", len(got), len(want))
	}
	dropped := fp.dropped
	if dropped != 1 {
		t.Fatalf("DropList dropped %d chunks, want 1", dropped)
	}
	_, rbytes := r.server.RetransStats()
	if rbytes == 0 {
		t.Fatal("no retransmission for the dropped chunk")
	}
	// Chunk 1 was accepted and trimmed by the ack, and chunks 3..5 wait
	// on the reassembly queue: the resend is chunk 2 alone.
	if wantR := int64(MSS); rbytes != wantR {
		t.Fatalf("retransmitted %d bytes, want %d (chunk 2 alone)", rbytes, wantR)
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("hole recovery leaked %d live pages", live)
	}
}

// TestOffloadDupAckFastRetransmit pins that the dup-ack signal is never
// delayed: two small super-segments in flight, a hole in the first. The
// out-of-order arrival of the second triggers an immediate duplicate ack,
// and fast retransmit fills the hole by resending the lost chunk alone —
// everything behind it waits on the receiver's reassembly queue — with
// no timeout.
func TestOffloadDupAckFastRetransmit(t *testing.T) {
	want := pattern(8 * MSS) // two 4-chunk super-segments in flight
	fp := &FaultPlan{DropList: []int64{2}}
	got, r := fastOffloadTransfer(t, fp, want, 8*MSS, 4*MSS)
	if !bytes.Equal(got, want) {
		t.Fatalf("hole not recovered: got %d bytes, want %d", len(got), len(want))
	}
	segs, rbytes := r.server.RetransStats()
	if segs != 1 || rbytes != MSS {
		t.Fatalf("fast retransmit resent %d segments of %d bytes, want 1 of %d (the lost chunk)", segs, rbytes, MSS)
	}
	// Exactly one recovery round, and it was dup-ack-driven — the RTO
	// never had to fire.
	if fast := r.server.fastRetrans; fast != 1 {
		t.Fatalf("%d dup-ack recovery rounds, want 1 (timer-driven recovery means the dup-ack was delayed)", fast)
	}
}

// TestOffloadLossRecovery runs 1% chunk loss over a 300 KB offloaded
// transfer: every byte arrives, recovery re-sends stored pieces without
// re-charging payload copies, and nothing leaks.
func TestOffloadLossRecovery(t *testing.T) {
	want := pattern(300 << 10)
	cleanGot, cleanCopied, _ := refTransfer(t, nil, want)
	if !bytes.Equal(cleanGot, want) {
		t.Fatal("baseline corrupted")
	}
	got, r := offloadTransfer(t, &FaultPlan{DropProb: 0.01, Seed: 3}, want, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("lossy offload transfer corrupted: got %d bytes, want %d", len(got), len(want))
	}
	segs, _ := r.server.RetransStats()
	if segs == 0 {
		t.Fatal("1% loss produced no retransmissions")
	}
	if copied := r.costs.MeterCopiedBytes(); copied != cleanCopied {
		t.Fatalf("offload recovery re-charged copies: %d copied bytes vs %d clean", copied, cleanCopied)
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("offload recovery leaked %d live pages", live)
	}
}

// TestOffloadCoalescedShutdownNoLeak abandons a coalesced receive queue
// mid-stream: GRO-merged deliveries waiting in rcvQ must release their
// aggregate references on ShutdownRecv exactly like per-MSS ones.
func TestOffloadCoalescedShutdownNoLeak(t *testing.T) {
	ck := cksum.NewCache(0)
	r := newRig(true, ck, 100*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	want := pattern(200 << 10)
	drained := false
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		end := conn.ClientEnd()
		if d, ok := end.Recv(p); ok {
			d.Release()
		}
		end.ShutdownRecv()
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want)}, nil)
		ep.Drain(p)
		drained = true
		ep.Close(p)
	})
	r.eng.Run()
	if !drained {
		t.Fatal("sender never drained: discarded coalesced deliveries were not acknowledged")
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("abandoned coalesced deliveries leaked %d live pages", live)
	}
}

// TestOffloadDeterminism pins that offloaded chaos runs replay exactly.
func TestOffloadDeterminism(t *testing.T) {
	want := pattern(128 << 10)
	run := func() (int64, int64, int64) {
		_, r := offloadTransfer(t, &FaultPlan{DropProb: 0.03, Seed: 42}, want, 0)
		d, c := r.link.faults.dropped, r.link.faults.corrupted
		segs, _ := r.server.RetransStats()
		return d, c, segs
	}
	d1, c1, s1 := run()
	d2, c2, s2 := run()
	if d1 != d2 || c1 != c2 || s1 != s2 {
		t.Fatalf("offload chaos not reproducible: (%d,%d,%d) vs (%d,%d,%d)", d1, c1, s1, d2, c2, s2)
	}
}

// TestOffloadConcurrentSendersGather drives two procs' ref-mode sends
// through one offloaded endpoint over a small window, so both park on it:
// every byte of each sender must arrive, and the interleaved queue must
// still gather many MSS chunks per charged transmit unit.
func TestOffloadConcurrentSendersGather(t *testing.T) {
	r := newRig(true, nil, 500*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	const perSender, chunk = 96 << 10, 4 << 10
	got := map[byte]int{}

	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true, Tss: 16 << 10})
		for {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				return
			}
			for _, b := range d.Bytes() {
				got[b]++
			}
			d.Release()
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		ep := r.lst.Accept(p).ServerEnd()
		done := 0
		sender := func(val byte) func(*sim.Proc) {
			return func(p *sim.Proc) {
				for sent := 0; sent < perSender; sent += chunk {
					pl := core.PackBytes(p, r.pool, bytes.Repeat([]byte{val}, chunk))
					ep.Send(p, Payload{Agg: pl}, nil)
				}
				if done++; done == 2 {
					ep.Drain(p)
					ep.Close(p)
				}
			}
		}
		r.eng.Go("a", sender(0xAA))
		r.eng.Go("b", sender(0xBB))
	})
	r.eng.Run()

	if len(got) != 2 || got[0xAA] != perSender || got[0xBB] != perSender {
		t.Fatalf("received bytes by value %v, want %d each of 0xaa and 0xbb", got, perSender)
	}
	pkts, _, _, _ := r.server.Stats()
	if segs := r.server.SegsOut(); segs < 2*pkts {
		t.Fatalf("gather broken with two senders: %d MSS chunks in %d charged units", segs, pkts)
	}
	if fill := r.server.MeanSegFill(); fill <= 0 || fill > 1 {
		t.Fatalf("MeanSegFill %v out of (0, 1] with two senders", fill)
	}
}
