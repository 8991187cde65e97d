package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// TestSteadyStateSegmentAllocs pins the host allocations one segment
// costs on a warmed connection that loses nothing. Ack records with their
// piece and slice arrays, wire events, the send, ack and receive queues,
// and the retransmission and delayed-ack timers are all reused, and a ref
// piece in flight is a run of buffer slices in its record's array, so
// what is left is the receiver's own copy of the payload, at about two
// pieces per segment: in ref mode the delivery aggregate per piece (the
// one a read returns), in copy mode the receive-buffer copy per piece.
// With offload, GRO appends most pieces to the receive queue's tail, so
// few segments allocate at all, and the receiver acks through the
// delayed-ack timer. The faulty case attaches an empty FaultPlan, which
// re-keys the RTO on every ack.
func TestSteadyStateSegmentAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ref     bool
		offload bool
		faulty  bool
		delay   time.Duration
		limit   float64
	}{
		{"ref", true, false, false, 100 * time.Microsecond, 4},
		{"copy", false, false, false, 100 * time.Microsecond, 3},
		{"offload", true, true, false, 100 * time.Microsecond, 1},
		{"faulty", true, false, true, 5 * time.Microsecond, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(tc.ref, nil, tc.delay)
			r.server.SetOffload(tc.offload)
			r.client.SetOffload(tc.offload)
			if tc.faulty {
				r.link.SetFaultPlan(&FaultPlan{})
			}
			mallocs, segs := steadyTransfer(t, r, tc.ref)
			if segs == 0 {
				t.Fatal("no segments sent")
			}
			if rs, _ := r.server.RetransStats(); rs != 0 {
				t.Fatalf("%d segments retransmitted on a wire that loses nothing", rs)
			}
			per := float64(mallocs) / float64(segs)
			t.Logf("%d allocations over %d segments: %.2f per segment", mallocs, segs, per)
			if per > tc.limit {
				t.Fatalf("%.2f allocations per steady-state segment, want at most %.0f", per, tc.limit)
			}
		})
	}
}

// TestAckRecyclesInPieceOrder pins the order in which an ack gives a
// chunk's buffers back to their pool: piece by piece, each piece's slices
// in order, the order in which per-piece aggregates would release them.
// Two corked two-buffer sends share one chunk; the client drops its
// deliveries before the ack returns, so the ack holds each buffer's last
// reference. The pool hands recycled buffers out last in first out, so
// four allocations after the ack must return them in reverse. That order
// decides which buffer a later allocation reuses, and with it the
// checksum cache's hits.
func TestAckRecyclesInPieceOrder(t *testing.T) {
	r := newRig(true, nil, 100*time.Microsecond)
	var sent, reused []*core.Buffer
	r.eng.Go("client", func(p *sim.Proc) {
		collect(p, Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true}).ClientEnd(), 400)
	})
	r.eng.Go("server", func(p *sim.Proc) {
		ep := r.lst.Accept(p).ServerEnd()
		ep.SetCork(true)
		for range 2 {
			a := core.NewAgg()
			for range 2 {
				b := r.pool.Alloc(p, 100)
				b.Write(0, pattern(100))
				b.Seal()
				a.Append(core.Slice{Buf: b, Len: 100})
				b.Release()
				sent = append(sent, b)
			}
			ep.Send(p, Payload{Agg: a}, nil)
		}
		ep.SetCork(false)
		ep.Drain(p)
		for range sent {
			reused = append(reused, r.pool.Alloc(p, 100))
		}
		ep.Close(p)
	})
	r.eng.Run()
	if segs := r.server.SegsOut(); segs != 1 {
		t.Fatalf("%d segments sent, want the two sends in one", segs)
	}
	order := make([]int, len(reused))
	for i, b := range reused {
		order[i] = slices.Index(sent, b)
	}
	if want := []int{3, 2, 1, 0}; !slices.Equal(order, want) {
		t.Fatalf("allocations after the ack reused the sent buffers in order %v, want %v", order, want)
	}
}

// TestEndpointSize: every connection builds two endpoints, and most never
// lose a segment or delay an ack, so the loss state lives behind a pointer
// and an endpoint fits the 384-byte size class.
func TestEndpointSize(t *testing.T) {
	if n := unsafe.Sizeof(Endpoint{}); n > 384 {
		t.Fatalf("Endpoint is %d bytes, want at most 384", n)
	}
}

// steadyTransfer sends 16 warm-up pieces of 16 KB from r's server to its
// client, then 64 more, draining after each batch, and reports the host
// mallocs and the wire segments of the last 64.
func steadyTransfer(t *testing.T, r *rig, ref bool) (mallocs uint64, segs int64) {
	const piece, warm, measured = 16 << 10, 16, 64
	data := pattern(piece)
	r.eng.Go("client", func(p *sim.Proc) {
		ep := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: ref}).ClientEnd()
		for got := 0; got < (warm+measured)*piece; {
			d, ok := ep.Recv(p)
			if !ok {
				t.Error("stream ended early")
				return
			}
			got += d.Len()
			d.Release()
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		ep := r.lst.Accept(p).ServerEnd()
		var src *core.Agg
		if ref {
			src = core.PackBytes(p, r.pool, data)
		}
		send := func(n int) {
			for i := 0; i < n; i++ {
				if ref {
					ep.Send(p, Payload{Agg: src.Clone()}, nil)
				} else {
					ep.Send(p, Payload{Data: data}, nil)
				}
			}
			ep.Drain(p)
		}
		send(warm)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s0 := r.server.SegsOut()
		send(measured)
		runtime.ReadMemStats(&m1)
		mallocs, segs = m1.Mallocs-m0.Mallocs, r.server.SegsOut()-s0
		if src != nil {
			src.Release()
		}
		ep.Close(p)
	})
	r.eng.Run()
	return mallocs, segs
}

// TestEmptyPlanNeverRetransmits pins the lossless faulty wire: on a
// 100 Mb/s, 100 µs link, an empty FaultPlan arms the RTO but drops
// nothing, so nothing may be retransmitted. A full 64 KB window queues
// about 5 ms of wire time, far above minRTO: a first RTO below the first
// RTT sample, or duplicate acks of a spurious resend counted as signs of
// loss, once cascaded here into hundreds of resends.
func TestEmptyPlanNeverRetransmits(t *testing.T) {
	r := newRig(true, nil, 100*time.Microsecond)
	r.link.SetFaultPlan(&FaultPlan{})
	_, segs := steadyTransfer(t, r, true)
	rs, _ := r.server.RetransStats()
	if rs != 0 || r.server.fastRetrans != 0 || segs != 719 {
		t.Fatalf("retransmitted %d segments in %d fast retransmits, %d segments for the last 64 sends; want 0, 0 and 719",
			rs, r.server.fastRetrans, segs)
	}
}

// spuriousRun sends 512 KB by reference in 16 KB pieces over a 500 µs
// link with segment offload on both hosts, whose empty fault plan arms
// RTOs. The first RTT exceeds the 1 ms first RTO, so the early
// retransmissions are spurious: the originals are acked and their
// records recycled, and reused for later super-segments, while their
// resends still queue for the CPU and the wire.
func spuriousRun() (got []byte, r *rig) {
	r = newRig(true, cksum.NewCache(0), 500*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	r.link.SetFaultPlan(&FaultPlan{})
	want := pattern(512 << 10)
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		ep := r.lst.Accept(p).ServerEnd()
		for off := 0; off < len(want); off += 16 << 10 {
			ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want[off:off+16<<10])}, nil)
		}
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	return got, r
}

// TestSpuriousRetransmitAfterRecycle pins that recycling an acked record
// cannot change what a queued resend of it carries: the resend keeps its
// own chunk header. The bytes must arrive intact with no pages leaked,
// and the run must keep its recovery counts and finish instant. A resend
// that shared the record's chunk array would still deliver intact bytes,
// since a late duplicate's pieces are never read, but would put a later
// chunk on the wire early: it reads 53.1 ms, and only the pinned instant
// catches it.
func TestSpuriousRetransmitAfterRecycle(t *testing.T) {
	got, r := spuriousRun()
	if !bytes.Equal(got, pattern(512<<10)) {
		t.Fatalf("got %d corrupt or missing bytes of %d", len(got), 512<<10)
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("leaked %d live pages", live)
	}
	segs, _ := r.server.RetransStats()
	if segs != 3 || r.server.fastRetrans != 0 {
		t.Fatalf("retransmitted %d segments in %d fast retransmits, want 3 in 0", segs, r.server.fastRetrans)
	}
	if want := sim.Time(53050 * time.Microsecond); r.eng.Now() != want {
		t.Fatalf("run finished at %v, want %v", r.eng.Now(), want)
	}
}

// TestConcurrentTransfers runs two rigs on two goroutines at once: each
// must match a lone run exactly, so the recycled records and wire events
// live on a host or a link, never in package state two engines share.
func TestConcurrentTransfers(t *testing.T) {
	transcript := func() string {
		got, r := spuriousRun()
		segs, rbytes := r.server.RetransStats()
		pkts, _, out, _ := r.server.Stats()
		return fmt.Sprint(bytes.Equal(got, pattern(512<<10)), segs, rbytes, pkts, out,
			r.server.AcksOut(), r.client.AcksOut(), r.eng.Now())
	}
	want := transcript()
	var wg sync.WaitGroup
	got := make([]string, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = transcript()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent run %d: %s, want %s as alone", i, g, want)
		}
	}
}

// TestFifoOrderAndArrayReuse pins the queue under the send, ack and
// receive paths: random pushes and pops keep FIFO order against a slice
// model, and a steady stream at any occupancy runs in one small array,
// allocating nothing.
func TestFifoOrderAndArrayReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f fifo[int]
	var model []int
	for i := 0; i < 20000; i++ {
		if len(model) == 0 || rng.Intn(100) < 52 {
			f.push(i)
			model = append(model, i)
		} else if got := f.pop(); got != model[0] {
			t.Fatalf("op %d: popped %d, want %d", i, got, model[0])
		} else {
			model = model[1:]
		}
		if f.len() != len(model) || !slices.Equal(f.items(), model) {
			t.Fatalf("op %d: queue %v, want %v", i, f.items(), model)
		}
	}
	for _, depth := range []int{0, 1, 5, 40} {
		var q fifo[int]
		for i := 0; i < depth; i++ {
			q.push(i)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 100; i++ {
				q.push(i)
				q.pop()
			}
		})
		if allocs != 0 || cap(q.buf) > 4*(depth+1) {
			t.Errorf("depth %d: %.1f allocations per 100 push-pops, %d slots, want 0 and at most %d",
				depth, allocs, cap(q.buf), 4*(depth+1))
		}
	}
}
