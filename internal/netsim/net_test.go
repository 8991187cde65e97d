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

// rig is a one-client one-server network fixture.
type rig struct {
	eng    *sim.Engine
	costs  *sim.CostModel
	vm     *mem.VM
	pool   *core.Pool
	server *Host
	client *Host
	link   *Link
	lst    *Listener
}

func newRig(serverRef bool, ck *cksum.Cache, delay time.Duration) *rig {
	e := sim.New()
	costs := sim.DefaultCosts()
	vm := mem.NewVM(e, costs, 128<<20)
	kd := vm.NewDomain("kernel", true)
	r := &rig{
		eng:   e,
		costs: costs,
		vm:    vm,
		pool:  core.NewPool(vm, kd, "net"),
	}
	r.server = NewHost(e, costs, "server", true, vm, ck)
	r.client = NewHost(e, costs, "client", false, nil, nil)
	r.link = NewLink(e, r.client, r.server, 100_000_000, delay)
	r.lst = NewListener(r.server)
	_ = serverRef
	return r
}

// collect reads from ep until eof or n bytes, returning the bytes.
func collect(p *sim.Proc, ep *Endpoint, n int) []byte {
	var out []byte
	for len(out) < n {
		d, ok := ep.Recv(p)
		if !ok {
			break
		}
		out = append(out, d.Bytes()...)
		d.Release()
	}
	return out
}

func pattern(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*13 + 7)
	}
	return d
}

func TestCopyModeEndToEnd(t *testing.T) {
	r := newRig(false, nil, 100*time.Microsecond)
	want := pattern(200 << 10)
	var got []byte
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: want}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, mismatch (want %d)", len(got), len(want))
	}
	if r.vm.UsedBy(mem.TagSockBuf) != 0 {
		t.Fatalf("socket buffer pages leaked: %d", r.vm.UsedBy(mem.TagSockBuf))
	}
}

func TestCopyModeSockBufBounded(t *testing.T) {
	// With a long delay, in-flight data is Tss-limited and socket buffers
	// must hold exactly up to Tss bytes.
	r := newRig(false, nil, 20*time.Millisecond)
	peak := 0
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{Tss: 64 << 10})
		total := 0
		for total < 512<<10 {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				break
			}
			total += d.Len()
			d.Release()
			if pages := conn.ServerEnd().sockPages; pages > peak {
				peak = pages
			}
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: pattern(512 << 10)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	maxPages := mem.PagesFor(64 << 10)
	if peak == 0 || peak > maxPages {
		t.Fatalf("peak sockbuf pages = %d, want in (0,%d]", peak, maxPages)
	}
}

func TestRefModeZeroCopyIdentityAndNoSockBuf(t *testing.T) {
	ck := cksum.NewCache(0)
	r := newRig(true, ck, 100*time.Microsecond)
	want := pattern(100 << 10)
	var srcBufs map[*core.Buffer]bool
	var gotBufs map[*core.Buffer]bool
	var got []byte
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		gotBufs = map[*core.Buffer]bool{}
		for len(got) < len(want) {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				break
			}
			if d.Agg == nil {
				t.Error("ref-mode delivery carried copied data")
			}
			for _, s := range d.Agg.Slices() {
				gotBufs[s.Buf] = true
			}
			got = append(got, d.Bytes()...)
			d.Release()
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		agg := core.PackBytes(p, r.pool, want)
		srcBufs = map[*core.Buffer]bool{}
		for _, s := range agg.Slices() {
			srcBufs[s.Buf] = true
		}
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: agg}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("ref-mode data corrupted in flight")
	}
	for b := range gotBufs {
		if !srcBufs[b] {
			t.Fatalf("delivered %v is not a source buffer: data was copied", b)
		}
	}
	if r.vm.UsedBy(mem.TagSockBuf) != 0 {
		t.Fatal("ref mode consumed socket-buffer memory")
	}
	// All transport references must drain after acks: only pool-held pages
	// (open pack chunk) may remain live.
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("transport leaked buffer references: %d live pages", live)
	}
}

func TestBandwidthBound(t *testing.T) {
	// A 100 Mb/s link must carry ≈ 100 Mb/s of goodput for large transfers
	// on a fast LAN.
	r := newRig(false, nil, 100*time.Microsecond)
	const total = 4 << 20
	var t0, t1 sim.Time
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		t0 = p.Now()
		collect(p, conn.ClientEnd(), total)
		t1 = p.Now()
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: pattern(total)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	mbps := float64(total) * 8 / (float64(t1.Sub(t0)) / 1e9) / 1e6
	if mbps < 70 || mbps > 100 {
		t.Fatalf("goodput = %.1f Mb/s, want ≈90", mbps)
	}
}

func TestDelayCapsThroughputAtTssOverRTT(t *testing.T) {
	// §5.7: with a large bandwidth-delay product, throughput ≈ Tss/RTT.
	delay := 50 * time.Millisecond
	r := newRig(false, nil, delay)
	const total = 1 << 20
	var t0, t1 sim.Time
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{Tss: 64 << 10})
		t0 = p.Now()
		collect(p, conn.ClientEnd(), total)
		t1 = p.Now()
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: pattern(total)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	got := float64(total) / (float64(t1.Sub(t0)) / 1e9)
	want := float64(64<<10) / 0.100 // Tss / RTT
	if got < want*0.6 || got > want*1.1 {
		t.Fatalf("throughput %.0f B/s, want ≈ %.0f (Tss/RTT)", got, want)
	}
}

func TestChecksumCacheSavesServerCPU(t *testing.T) {
	// Serving the same aggregate twice: the second pass must consume less
	// server CPU (checksums cached, §3.9).
	ck := cksum.NewCache(0)
	r := newRig(true, ck, 100*time.Microsecond)
	const size = 64 << 10
	want := pattern(size)
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		collect(p, conn.ClientEnd(), 2*size)
	})
	var firstBusy, secondBusy sim.Duration
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		master := core.PackBytes(p, r.pool, want)
		ep := conn.ServerEnd()

		r.server.CPU().ResetMeters()
		b0 := r.server.CPU().FreeAt()
		ep.Send(p, Payload{Agg: master.Clone()}, nil)
		ep.Drain(p)
		firstBusy = r.server.CPU().FreeAt().Sub(b0)

		b1 := r.server.CPU().FreeAt()
		ep.Send(p, Payload{Agg: master.Clone()}, nil)
		ep.Drain(p)
		secondBusy = r.server.CPU().FreeAt().Sub(b1)

		master.Release()
		ep.Close(p)
	})
	r.eng.Run()
	saved := firstBusy - secondBusy
	if saved < r.costs.PriceCksum(size)*8/10 {
		t.Fatalf("checksum cache saved %v, want ≈ %v", saved, r.costs.PriceCksum(size))
	}
	hits, _, hitBytes, _ := ck.Stats()
	if hits == 0 || hitBytes < size {
		t.Fatalf("cache hits=%d hitBytes=%d", hits, hitBytes)
	}
}

func TestCloseDeliversEOFAfterData(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	var got []byte
	eof := false
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		for {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				eof = true
				return
			}
			got = append(got, d.Bytes()...)
			d.Release()
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: []byte("bye")}, nil)
		ep.Close(p)
	})
	r.eng.Run()
	if !eof || string(got) != "bye" {
		t.Fatalf("eof=%v got=%q", eof, got)
	}
}

func TestDialHandshakeTiming(t *testing.T) {
	delay := 10 * time.Millisecond
	r := newRig(false, nil, delay)
	r.eng.Go("server", func(p *sim.Proc) { r.lst.Accept(p) })
	r.eng.Go("client", func(p *sim.Proc) {
		t0 := p.Now()
		Dial(p, r.client, r.link, r.lst, ConnOpts{})
		rtt := p.Now().Sub(t0)
		if rtt < 2*delay || rtt > 2*delay+5*time.Millisecond {
			t.Errorf("handshake took %v, want ≈ %v", rtt, 2*delay)
		}
	})
	r.eng.Run()
}

func TestSendAfterClosePanics(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		_ = conn
	})
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		ep := conn.ClientEnd()
		ep.Close(p)
		defer func() {
			if recover() == nil {
				t.Error("send after close did not panic")
			}
		}()
		ep.Send(p, Payload{Data: []byte("x")}, nil)
	})
	r.eng.Run()
}

func TestBidirectionalTraffic(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	var reqSeen, respSeen string
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		d, ok := ep.Recv(p)
		if !ok {
			t.Error("no request")
			return
		}
		reqSeen = string(d.Bytes())
		d.Release()
		ep.Send(p, Payload{Data: []byte("response:" + reqSeen)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		conn.ClientEnd().Send(p, Payload{Data: []byte("GET /x")}, nil)
		respSeen = string(collect(p, conn.ClientEnd(), 1<<20))
	})
	r.eng.Run()
	if reqSeen != "GET /x" || respSeen != "response:GET /x" {
		t.Fatalf("req=%q resp=%q", reqSeen, respSeen)
	}
}
