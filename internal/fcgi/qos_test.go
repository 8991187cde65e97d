package fcgi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// qosPool builds a ref-mode echo pool with a deliberately slow handler
// (work of off-CPU time per request) and the given admission policy.
func qosPool(b *bed, workers, depth int, work time.Duration, q *QoSConfig) *WorkerPool {
	return NewWorkerPool(PoolConfig{
		Machine: b.m,
		Server:  b.srv,
		Workers: workers,
		Depth:   depth,
		Ref:     true,
		Name:    "qos",
		QoS:     q,
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			p.Sleep(work)
			body := append([]byte(nil), req.Params...)
			out := core.PackBytes(p, w.Proc.Pool, body)
			if err := req.WriteStdout(p, out); err != nil {
				out.Release()
				return
			}
			req.End(p, 0)
		},
	})
}

// TestQoSShareBoundTypedError pins the in-flight bound: with MaxShare 1,
// a tenant's second concurrent request sheds with ErrOverShare (IsShed
// matches, the pool does not count it as a failure) while another
// tenant's request sails through the same pool.
func TestQoSShareBoundTypedError(t *testing.T) {
	b := newBed()
	meters := obs.NewTenants()
	pool := qosPool(b, 1, 4, time.Millisecond, &QoSConfig{MaxShare: 1, Meters: meters})

	var shedErr, otherErr error
	b.eng.Go("first", func(p *sim.Proc) {
		resp, err := pool.Do(p, Request{Params: []byte("a"), Tenant: "t1"})
		if err != nil {
			t.Errorf("first t1 request failed: %v", err)
			return
		}
		resp.Release()
	})
	b.eng.Go("second", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // while the first holds its share
		_, shedErr = pool.Do(p, Request{Params: []byte("b"), Tenant: "t1"})
	})
	b.eng.Go("other", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		resp, err := pool.Do(p, Request{Params: []byte("c"), Tenant: "t2"})
		if err != nil {
			otherErr = err
			return
		}
		resp.Release()
	})
	b.eng.Run()

	if !errors.Is(shedErr, ErrOverShare) {
		t.Fatalf("same-tenant overload got %v, want ErrOverShare", shedErr)
	}
	if !IsShed(shedErr) {
		t.Fatal("IsShed does not match ErrOverShare")
	}
	if otherErr != nil {
		t.Fatalf("other tenant was punished for t1's load: %v", otherErr)
	}
	if sheds, throttles := pool.Sheds(); sheds != 1 || throttles != 0 {
		t.Fatalf("pool sheds=%d throttles=%d, want 1/0", sheds, throttles)
	}
	if _, failures, _ := pool.Stats(); failures != 0 {
		t.Fatalf("a shed counted as a pool failure (%d)", failures)
	}
	if s := meters.Get("t1"); s.Requests != 1 || s.Sheds != 1 {
		t.Fatalf("t1 meters %+v, want 1 admitted / 1 shed", *s)
	}
	if s := meters.Get("t2"); s.Requests != 1 || s.Sheds != 0 {
		t.Fatalf("t2 meters %+v, want 1 admitted / 0 shed", *s)
	}
}

// TestQoSRateThrottleTypedError pins the rate bucket: with a 1-token
// bucket at 1 req/s, the second back-to-back request throttles with
// ErrThrottled, and the allowance recovers with simulated time.
func TestQoSRateThrottleTypedError(t *testing.T) {
	b := newBed()
	pool := qosPool(b, 1, 4, 10*time.Microsecond, &QoSConfig{
		MaxShare: 100,
		ReqRate:  1,
		ReqBurst: 1,
	})

	var second, third error
	b.eng.Go("tenant", func(p *sim.Proc) {
		resp, err := pool.Do(p, Request{Params: []byte("1"), Tenant: "t"})
		if err != nil {
			t.Errorf("first request: %v", err)
			return
		}
		resp.Release()
		_, second = pool.Do(p, Request{Params: []byte("2"), Tenant: "t"})
		p.Sleep(1100 * sim.Millisecond) // one token refills
		resp, third = pool.Do(p, Request{Params: []byte("3"), Tenant: "t"})
		if third == nil {
			resp.Release()
		}
	})
	b.eng.Run()

	if !errors.Is(second, ErrThrottled) || !IsShed(second) {
		t.Fatalf("second request got %v, want ErrThrottled", second)
	}
	if third != nil {
		t.Fatalf("request after refill window failed: %v", third)
	}
	if sheds, throttles := pool.Sheds(); sheds != 0 || throttles != 1 {
		t.Fatalf("pool sheds=%d throttles=%d, want 0/1", sheds, throttles)
	}
}

// TestQoSShedLeaksNoPages is the leak satellite: a flood of requests
// against a slow, share-bounded pool sheds most of the load, and neither
// a shed nor a completed request may leak a buffer reference — zero
// leaked pages on the server and in every worker.
func TestQoSShedLeaksNoPages(t *testing.T) {
	b := newBed()
	pool := qosPool(b, 2, 4, 500*time.Microsecond, &QoSConfig{MaxShare: 1})

	const clients = 40
	completed, sheds := 0, 0
	for i := 0; i < clients; i++ {
		i := i
		b.eng.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * 5 * sim.Microsecond)
			resp, err := pool.Do(p, Request{Params: []byte("up"), Tenant: "flood"})
			switch {
			case err == nil:
				completed++
				resp.Release()
			case IsShed(err):
				sheds++
			default:
				t.Errorf("non-shed failure: %v", err)
			}
		})
	}
	b.eng.Run()

	if sheds == 0 {
		t.Fatal("flood produced no sheds — the leak path never ran")
	}
	if completed == 0 {
		t.Fatal("nothing completed")
	}
	if completed+sheds != clients {
		t.Fatalf("%d completed + %d shed != %d clients", completed, sheds, clients)
	}
	assertPoolNoAggLeaks(t, b, pool)
}
