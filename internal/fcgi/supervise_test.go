package fcgi

import (
	"fmt"
	"testing"
	"time"

	"iolite/internal/sim"
)

// slowPool builds a supervised pool whose handler holds a request for
// work before replying — long enough for a mid-load kill to catch
// requests in flight.
func slowPool(b *bed, tr Transport, workers, depth int, work time.Duration, respawn bool, onRetire func(*Worker)) *WorkerPool {
	return NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: workers, Depth: depth,
		Ref: true, Transport: tr, Respawn: respawn, Name: "sup",
		OnRetire: onRetire,
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			p.Sleep(work)
			req.ReplyBytes(p, []byte("ok"), 0)
		},
	})
}

// TestPoolRespawnsCrashedWorker kills one worker of two mid-load, over
// both a pipe and a remote socket transport: requests in flight on the
// victim still error, the pool respawns a fresh worker process over a
// fresh channel, and a later wave of requests finds full capacity again —
// including the replacement, which must carry traffic.
func TestPoolRespawnsCrashedWorker(t *testing.T) {
	for _, trName := range []string{"pipe", "sock-remote"} {
		t.Run(trName, func(t *testing.T) {
			b := newBed()
			var retired []*Worker
			pool := slowPool(b, buildTransport(b, trName, true), 2, 2, 200*time.Microsecond, true,
				func(w *Worker) { retired = append(retired, w) })
			victim := pool.Workers()[0]

			// Wave 1: four concurrent requests fill both workers...
			var wave1Errs, wave1OK int
			for i := 0; i < 4; i++ {
				b.eng.Go(fmt.Sprintf("w1c%d", i), func(p *sim.Proc) {
					if _, err := pool.Do(p, Request{Params: []byte("/x")}); err != nil {
						wave1Errs++
					} else {
						wave1OK++
					}
				})
			}
			// ...and the victim dies while its two are in flight.
			b.eng.Go("killer", func(p *sim.Proc) {
				p.Sleep(50 * time.Microsecond)
				victim.Conn().Close(p)
			})
			// Wave 2, well after the respawn settles: full capacity again.
			var wave2Errs, wave2OK int
			for i := 0; i < 4; i++ {
				b.eng.Go(fmt.Sprintf("w2c%d", i), func(p *sim.Proc) {
					p.Sleep(2 * time.Millisecond)
					if _, err := pool.Do(p, Request{Params: []byte("/x")}); err != nil {
						wave2Errs++
					} else {
						wave2OK++
					}
				})
			}
			b.eng.Run()

			if wave1Errs == 0 {
				t.Error("no in-flight request failed when its worker died (expected real errors, not replay)")
			}
			if wave2Errs != 0 {
				t.Errorf("%d requests failed after the respawn settled", wave2Errs)
			}
			if got := pool.Respawns(); got != 1 {
				t.Errorf("pool respawned %d workers, want 1", got)
			}
			nw := pool.Workers()[0]
			if nw == victim {
				t.Fatal("dead worker still routed")
			}
			if nw.Gen != 1 || nw.ID != 0 {
				t.Errorf("replacement = ID %d gen %d, want ID 0 gen 1", nw.ID, nw.Gen)
			}
			if in, _, _ := nw.conn.Stats(); in == 0 {
				t.Error("replacement received no records; capacity did not recover onto it")
			}
			if len(retired) != 1 || retired[0] != victim {
				t.Errorf("OnRetire saw %d workers, want exactly the victim", len(retired))
			}
		})
	}
}

// TestPoolReroutesRequestWaitingOnDeadWorker is the routing-race
// regression test: least-loaded routing binds a request to a worker, the
// request blocks waiting for a mux slot, and the worker dies before a
// slot frees. The health check has gone stale — the pool must re-check
// at dispatch and re-route the never-sent request to a live worker
// instead of failing it.
func TestPoolReroutesRequestWaitingOnDeadWorker(t *testing.T) {
	b := newBed()
	pool := slowPool(b, nil, 2, 1, 500*time.Microsecond, false, nil)

	var errA, errB, errC error
	b.eng.Go("A", func(p *sim.Proc) { // fills worker 0's single slot
		_, errA = pool.Do(p, Request{Params: []byte("/a")})
	})
	b.eng.Go("B", func(p *sim.Proc) { // fills worker 1's single slot
		_, errB = pool.Do(p, Request{Params: []byte("/b")})
	})
	b.eng.Go("C", func(p *sim.Proc) { // routed to worker 0, waits for its slot
		p.Sleep(10 * time.Microsecond)
		_, errC = pool.Do(p, Request{Params: []byte("/c")})
	})
	b.eng.Go("killer", func(p *sim.Proc) { // worker 0 dies while C waits on it
		p.Sleep(100 * time.Microsecond)
		pool.Workers()[0].Conn().Close(p)
	})
	b.eng.Run()

	if errA == nil {
		t.Error("request in flight on the dead worker succeeded; want a real failure")
	}
	if errB != nil {
		t.Errorf("request on the healthy worker failed: %v", errB)
	}
	if errC != nil {
		t.Errorf("request waiting on the dead worker failed instead of re-routing: %v", errC)
	}
	if got := pool.Reroutes(); got == 0 {
		t.Error("pool recorded no re-routes; the stale routing decision was not re-checked")
	}
	if _, fails, _ := pool.Stats(); fails != 1 {
		t.Errorf("pool failures = %d, want exactly 1 (the in-flight request)", fails)
	}
}

// TestPoolStatsKeepDeadWorkerWriteErrors kills the only worker while its
// handler sleeps. The handler's reply then hits the closed channel after
// supervision has replaced the worker: that write error must still reach
// pool.Stats, and the count must never fall while it travels from the
// dead worker to the pool's total.
func TestPoolStatsKeepDeadWorkerWriteErrors(t *testing.T) {
	b := newBed()
	pool := slowPool(b, nil, 1, 1, 500*time.Microsecond, true, nil)
	victim := pool.Workers()[0]

	var doErr error
	b.eng.Go("client", func(p *sim.Proc) {
		_, doErr = pool.Do(p, Request{Params: []byte("/x")})
	})
	b.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond)
		victim.Conn().Close(p)
	})
	var prev int64
	var respawnedFirst bool
	b.eng.Go("sampler", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(50 * time.Microsecond)
			_, _, we := pool.Stats()
			if we < prev {
				t.Errorf("at %v write errors fell %d → %d", p.Now(), prev, we)
			}
			if prev == 0 && we > 0 {
				respawnedFirst = pool.Respawns() == 1
			}
			prev = we
		}
	})
	b.eng.Run()

	if doErr == nil {
		t.Error("request on the killed worker succeeded; want a real failure")
	}
	if pool.Respawns() != 1 || pool.Workers()[0] == victim {
		t.Fatalf("pool respawned %d workers, want the victim replaced once", pool.Respawns())
	}
	if _, _, we := pool.Stats(); we == 0 {
		t.Error("the dead worker's late write error is missing from pool.Stats")
	}
	if !respawnedFirst {
		t.Error("the write error was counted before the respawn; the test no longer exercises a late error")
	}
}
