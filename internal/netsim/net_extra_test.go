package netsim

import (
	"testing"
	"time"

	"iolite/internal/sim"
)

// TestDelayRouterKnob: the delay router is the link's one-way delay, set
// when the link is made; a handshake observes twice it as its RTT.
func TestDelayRouterKnob(t *testing.T) {
	r := newRig(false, nil, 75*time.Millisecond)
	r.eng.Go("server", func(p *sim.Proc) { r.lst.Accept(p) })
	r.eng.Go("client", func(p *sim.Proc) {
		t0 := p.Now()
		Dial(p, r.client, r.link, r.lst, ConnOpts{})
		if rtt := p.Now().Sub(t0); rtt < 150*time.Millisecond {
			t.Errorf("handshake RTT %v ignores the delay router", rtt)
		}
	})
	r.eng.Run()
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	accepted := true
	r.eng.Go("server", func(p *sim.Proc) {
		if c := r.lst.Accept(p); c != nil {
			t.Error("Accept returned a connection from nowhere")
		}
		accepted = false
	})
	r.eng.Go("closer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		r.lst.Close()
	})
	r.eng.Run()
	if accepted {
		t.Fatal("Accept never returned after Close")
	}
	if r.eng.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", r.eng.LiveProcs())
	}
}

func TestHostPacketCounters(t *testing.T) {
	// A corked multi-write burst — header, body, trailer — packs into
	// ⌈total/MSS⌉ data segments: the corked formula, not the sum of
	// per-write ⌈n/MSS⌉ segmentations the pump used to emit.
	r := newRig(false, nil, time.Millisecond)
	sizes := []int{300, 64 << 10, 5}
	total := 0
	for _, n := range sizes {
		total += n
	}
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		collect(p, conn.ClientEnd(), total)
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.SetCork(true)
		for _, n := range sizes {
			ep.Send(p, Payload{Data: pattern(n)}, nil)
		}
		ep.SetCork(false)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	pktsOut, _, bytesOut, _ := r.server.Stats()
	wantPkts := int64((total + MSS - 1) / MSS)
	if pktsOut != wantPkts || bytesOut != int64(total) {
		t.Fatalf("server out: %d pkts/%d bytes, want %d/%d", pktsOut, bytesOut, wantPkts, total)
	}
	_, pktsIn, _, bytesIn := r.client.Stats()
	if pktsIn != wantPkts || bytesIn != int64(total) {
		t.Fatalf("client in: %d pkts/%d bytes", pktsIn, bytesIn)
	}
	if fill := r.server.MeanSegFill(); fill < 0.95 {
		t.Fatalf("mean segment fill %.2f, want ≥0.95 for a corked burst", fill)
	}
}

func TestSendDoneFiresOnFullAck(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	var ackedAt sim.Time
	var consumedAt sim.Time
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		collect(p, conn.ClientEnd(), 10<<10)
		consumedAt = p.Now()
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: pattern(10 << 10)}, func() {
			ackedAt = r.eng.Now()
		})
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	if ackedAt == 0 {
		t.Fatal("done callback never fired")
	}
	if ackedAt < consumedAt {
		t.Fatalf("done fired at %v before the receiver consumed at %v?", ackedAt, consumedAt)
	}
}

func TestZeroLengthSend(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	fired := false
	r.eng.Go("server", func(p *sim.Proc) { r.lst.Accept(p) })
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		conn.ClientEnd().Send(p, Payload{}, func() { fired = true })
	})
	r.eng.Run()
	if !fired {
		t.Fatal("zero-length send did not complete immediately")
	}
}
