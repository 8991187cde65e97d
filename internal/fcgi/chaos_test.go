package fcgi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// assertNoAggLeaks pins the refcount audit: once a run has drained, a pool
// may keep at most its open pack chunk's pages live. Anything beyond that
// is a leaked *core.Agg reference — a delivery abandoned without Release.
func assertNoAggLeaks(t *testing.T, name string, pool *core.Pool) {
	t.Helper()
	if live := pool.LivePages(); live > mem.PagesPerChunk {
		t.Errorf("%s leaked buffer references: %d live pages (allowance %d)", name, live, mem.PagesPerChunk)
	}
}

// assertPoolNoAggLeaks sweeps the server process and every current worker.
func assertPoolNoAggLeaks(t *testing.T, b *bed, wp *WorkerPool) {
	t.Helper()
	assertNoAggLeaks(t, "server", b.srv.Pool)
	for _, w := range wp.Workers() {
		assertNoAggLeaks(t, fmt.Sprintf("worker%d.g%d", w.ID, w.Gen), w.Proc.Pool)
	}
}

// TestOnFailAfterBreakFiresImmediately pins the registration race fix: a
// handler registered after the mux has already broken must fire at once
// with the terminal error instead of being silently lost.
func TestOnFailAfterBreakFiresImmediately(t *testing.T) {
	b := newBed()
	pool := slowPool(b, nil, 1, 1, 50*time.Microsecond, false, nil)
	w := pool.Workers()[0]
	b.eng.Go("killer", func(p *sim.Proc) {
		w.Conn().Close(p)
	})
	b.eng.Run()
	if w.mux.Err() == nil {
		t.Fatal("mux did not break")
	}
	var got error
	w.mux.OnFail(func(err error) { got = err })
	if got == nil {
		t.Fatal("OnFail registered after the break never fired")
	}
	// And a pre-break registration still fires exactly once at the break.
	b2 := newBed()
	pool2 := slowPool(b2, nil, 1, 1, 50*time.Microsecond, false, nil)
	w2 := pool2.Workers()[0]
	fired := 0
	w2.mux.OnFail(func(error) { fired++ })
	b2.eng.Go("killer", func(p *sim.Proc) {
		w2.Conn().Close(p)
	})
	b2.eng.Run()
	if fired != 1 {
		t.Fatalf("pre-break OnFail fired %d times, want 1", fired)
	}
}

// TestWorkerDeathErrorTaxonomy pins the typed errors: an in-flight request
// on a dying worker fails with an error matching BOTH ErrWorkerDied (the
// recovery branch) and ErrBroken (the transport cause).
func TestWorkerDeathErrorTaxonomy(t *testing.T) {
	b := newBed()
	pool := slowPool(b, nil, 1, 2, time.Millisecond, false, nil)
	var errA error
	b.eng.Go("A", func(p *sim.Proc) {
		_, errA = pool.Do(p, Request{Params: []byte("/a")})
	})
	b.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		pool.Workers()[0].Conn().Close(p)
	})
	b.eng.Run()
	if !errors.Is(errA, ErrWorkerDied) {
		t.Fatalf("in-flight failure %v does not match ErrWorkerDied", errA)
	}
	if !errors.Is(errA, ErrBroken) {
		t.Fatalf("in-flight failure %v lost its ErrBroken cause", errA)
	}
}

// TestPoolReplaysIdempotentOnWorkerDeath pins the replay policy: with
// Respawn+Replay, killing a worker mid-load loses no idempotent request
// (they re-dispatch) while non-idempotent in-flight requests still fail
// with ErrWorkerDied. No aggregate references leak on any path.
func TestPoolReplaysIdempotentOnWorkerDeath(t *testing.T) {
	b := newBed()
	served := map[string]int{}
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 2, Depth: 2,
		Ref: true, Respawn: true, Replay: true, Name: "rp",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			p.Sleep(300 * time.Microsecond)
			body := append([]byte("done:"), req.Params...)
			served[string(req.Params)]++
			req.ReplyBytes(p, body, 0)
		},
	})
	victim := pool.Workers()[0]
	idemOK, idemFail := 0, 0
	for i := 0; i < 4; i++ {
		i := i
		b.eng.Go(fmt.Sprintf("idem%d", i), func(p *sim.Proc) {
			resp, err := pool.Do(p, Request{
				Params:     []byte(fmt.Sprintf("/i%d", i)),
				Idempotent: true,
			})
			if err != nil {
				t.Errorf("idempotent request %d failed: %v", i, err)
				idemFail++
				return
			}
			idemOK++
			resp.Release()
		})
	}
	b.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond) // both workers have requests in flight
		victim.Conn().Close(p)
	})
	b.eng.Run()
	if idemFail != 0 {
		t.Errorf("%d idempotent requests failed; replay must complete all of them", idemFail)
	}
	if idemOK != 4 {
		t.Errorf("completed %d idempotent requests, want 4", idemOK)
	}
	if pool.Replays() == 0 {
		t.Error("no replays recorded despite a mid-flight worker death")
	}
	// A replayed request really ran more than once — that's the contract
	// the Idempotent bit signs up for.
	replayedTwice := false
	for _, n := range served {
		if n > 1 {
			replayedTwice = true
		}
	}
	if !replayedTwice {
		t.Error("no handler observed a duplicate execution; the kill missed every in-flight request")
	}
	assertPoolNoAggLeaks(t, b, pool)
}

// TestRingModePoolChaos is the ring-mode satellite: a worker killed with a
// Submit batch in flight distributes per-record errors — every concurrent
// request gets an answer (no hangs), idempotent records replay to the
// survivor, non-idempotent ones fail with ErrWorkerDied — and the ring
// reap after close releases every reference.
func TestRingModePoolChaos(t *testing.T) {
	for _, trName := range []string{"pipe", "sock-local"} {
		t.Run(trName, func(t *testing.T) {
			b := newBed()
			pool := NewWorkerPool(PoolConfig{
				Machine: b.m, Server: b.srv, Workers: 2, Depth: 4,
				Ref: true, Transport: buildTransport(b, trName, true), Ring: true,
				Respawn: true, Replay: true, Name: "rchaos",
				Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
					p.Sleep(400 * time.Microsecond)
					out := core.PackBytes(p, w.Proc.Pool, doc(2000))
					if err := req.WriteStdout(p, out); err != nil {
						out.Release()
						return
					}
					req.End(p, 0)
				},
			})
			victim := pool.Workers()[0]
			idemOK, idemFail, answered := 0, 0, 0
			total := 8
			for i := 0; i < total; i++ {
				i := i
				idem := i%2 == 0
				b.eng.Go(fmt.Sprintf("req%d", i), func(p *sim.Proc) {
					resp, err := pool.Do(p, Request{
						Params:     []byte(fmt.Sprintf("/r%d", i)),
						Idempotent: idem,
					})
					answered++
					if idem {
						if err != nil {
							idemFail++
						} else {
							idemOK++
						}
					} else if err != nil && !errors.Is(err, ErrWorkerDied) {
						t.Errorf("non-idempotent ring request: %v, want ErrWorkerDied", err)
					}
					if err == nil {
						resp.Release()
					}
				})
			}
			b.eng.Go("killer", func(p *sim.Proc) {
				p.Sleep(200 * time.Microsecond) // mid-batch: submissions in the ring
				victim.Conn().Close(p)
			})
			b.eng.Run()
			if answered != total {
				t.Fatalf("only %d/%d requests got an answer — a ring record's error was swallowed", answered, total)
			}
			if idemFail != 0 {
				t.Errorf("%d idempotent ring requests failed; want 0 (replayed)", idemFail)
			}
			if idemOK != total/2 {
				t.Errorf("%d idempotent ring requests completed, want %d", idemOK, total/2)
			}
			assertPoolNoAggLeaks(t, b, pool)
		})
	}
}
