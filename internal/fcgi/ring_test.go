package fcgi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// TestRingPoolServesEveryTransport runs the echo workload over each
// transport with both ends of every channel in ring mode: batching and
// receive coalescing change the syscall economy, never the bytes. The
// pipe/ref case doubles as the stream-decode pin — ring reads coalesce a
// reference pipe's atomic one-record aggregates into multi-record
// deliveries, which the stream reassembler must split back apart.
func TestRingPoolServesEveryTransport(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for _, name := range []string{"pipe", "sock-local", "sock-remote"} {
			t.Run(fmt.Sprintf("%s/ref=%v", name, ref), func(t *testing.T) {
				b := newBed()
				tr := buildTransport(b, name, ref)
				pool := NewWorkerPool(PoolConfig{
					Machine: b.m, Server: b.srv, Workers: 2, Depth: 4,
					Ref: ref, Transport: tr, Ring: true, Name: "recho",
					Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
						body := append([]byte(nil), req.Params...)
						if ref {
							out := core.PackBytes(p, w.Proc.Pool, body)
							if err := req.WriteStdout(p, out); err != nil {
								out.Release()
								return
							}
							req.End(p, uint32(len(req.Params)))
							return
						}
						req.ReplyBytes(p, body, uint32(len(req.Params)))
					},
				})
				done := 0
				for i := 0; i < 6; i++ {
					i := i
					b.eng.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
						resp, err := pool.Do(p, Request{Params: []byte("/hello")})
						if err != nil {
							t.Errorf("Do %d over %s: %v", i, name, err)
							return
						}
						if got := string(resp.Payload()); got != "/hello" {
							t.Errorf("payload %d = %q over %s", i, got, name)
						}
						resp.Release()
						done++
					})
				}
				b.eng.Go("closer", func(p *sim.Proc) {
					p.Sleep(time.Second) // after the workload drains
					closePool(p, pool)
				})
				b.eng.Run()
				if done != 6 {
					t.Fatalf("%d/6 requests served over %s", done, name)
				}
				if eng := b.eng; eng.LiveProcs() != 0 {
					t.Errorf("%d procs still live after pool close (flusher leak?)", eng.LiveProcs())
				}
			})
		}
	}
}

// TestAcceptanceRingQuartersSyscallCharges is the PR's acceptance pin at
// the fcgi layer: a sock-local ref pool at depth 16 moves the same
// workload for at most 1/4 of the per-op baseline's syscall charges —
// record writes from 32 concurrent requests batch into O(1) Submit+Reap
// cycles, and reads ingest coalesced deliveries instead of paying one
// charged read per MSS.
func TestAcceptanceRingQuartersSyscallCharges(t *testing.T) {
	const (
		depth    = 16
		M        = 2 * depth
		docBytes = 16 << 10
	)
	params := []byte("/doc")

	run := func(ring bool) int64 {
		b := newBed()
		tr := NewLoopbackTransport(b.m, b.srv, true)
		aggs := NewAggCache()
		pool := NewWorkerPool(PoolConfig{
			Machine: b.m, Server: b.srv, Workers: 2, Depth: depth,
			Ref: true, Transport: tr, Ring: ring, Name: "rsys",
			Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
				agg := aggs.GetOrPack(p, w, int64(docBytes), func() []byte { return doc(docBytes) })
				req.Reply(p, agg, 0)
			},
		})
		runRound(t, b, pool, M, params, docBytes)
		b.m.Costs.ResetMeters()
		runRound(t, b, pool, M, params, docBytes)
		return b.m.Costs.MeterSyscallCount()
	}

	base, ringed := run(false), run(true)
	if base == 0 || ringed == 0 {
		t.Fatalf("syscall meter empty: base=%d ring=%d", base, ringed)
	}
	t.Logf("syscall charges: baseline=%d ring=%d (%.1fx fewer)", base, ringed, float64(base)/float64(ringed))
	if ringed > base/4 {
		t.Errorf("ring mode charged %d syscalls vs %d baseline; want ≤ 1/4", ringed, base)
	}
}

// TestRingResetSurfacesThroughMux is the socket-reset test with ring mode
// on: the worker's end dies mid-request, and the EPIPE-equivalent must
// fail the in-flight request through the ring's per-record error path
// instead of hanging a parked writer or the flusher.
func TestRingResetSurfacesThroughMux(t *testing.T) {
	b := newBed()
	tr, _ := NewLANTransport(b.m, b.srv, true)
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 2,
		Ref: true, Transport: tr, Ring: true, Name: "rrst",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			p.Sleep(5 * time.Millisecond) // outlive the kill
			req.ReplyBytes(p, []byte("late"), 0)
		},
	})
	var doErr error
	b.eng.Go("client", func(p *sim.Proc) {
		_, doErr = pool.Do(p, Request{Params: []byte("/x")})
	})
	b.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		pool.Workers()[0].Conn().Close(p)
	})
	b.eng.Go("closer", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond) // after the late handler fails
		closePool(p, pool)
	})
	b.eng.Run()
	if doErr == nil {
		t.Fatal("request survived a worker socket reset under ring mode")
	}
	if err := pool.Workers()[0].mux.Err(); !errors.Is(err, ErrBroken) {
		t.Errorf("mux error = %v, want ErrBroken", err)
	}
	if b.eng.LiveProcs() != 0 {
		t.Errorf("%d procs still live after reset (stuck flusher?)", b.eng.LiveProcs())
	}
}
