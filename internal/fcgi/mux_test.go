package fcgi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// TestMuxInterleavesConcurrentRequests drives five concurrent requests of
// different sizes through a single worker connection in copy mode —
// large responses are chunked into MaxPayload records, so the response
// pipe carries interleaved records from ≥3 requests at once — and checks
// every response reassembles to exactly its own request's bytes.
func TestMuxInterleavesConcurrentRequests(t *testing.T) {
	b := newBed()
	// Stagger handler completion so STDOUT streams overlap on the pipe.
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 8, Name: "w",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			var size int
			fmt.Sscanf(string(req.Params), "%d", &size)
			p.Sleep(time.Duration(size%7) * time.Microsecond)
			body := doc(size)
			// Chunked writes from all handlers interleave record-by-record.
			if err := req.WriteStdoutBytes(p, body); err != nil {
				return
			}
			req.End(p, 0)
		},
	})

	sizes := []int{100_000, 70_001, 50_002, 33, 90_003}
	done := 0
	for i, size := range sizes {
		i, size := i, size
		b.eng.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			resp, err := pool.Do(p, Request{Params: []byte(fmt.Sprint(size))})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if !bytes.Equal(resp.Payload(), doc(size)) {
				t.Errorf("request %d (%d bytes): response crossed streams", i, size)
			}
			resp.Release()
			done++
		})
	}
	b.eng.Run()
	if done != len(sizes) {
		t.Fatalf("%d/%d requests completed", done, len(sizes))
	}
	// One pipe pair carried everything: the worker emitted more records
	// than requests (chunking), all multiplexed.
	if pool.records() < int64(len(sizes)*4) {
		t.Errorf("only %d records moved; expected chunked multiplexing", pool.records())
	}
}

// TestMuxWorkerCrashMidRecord kills the "worker" halfway through a
// record: the mux must fail every in-flight request rather than hang or
// deliver a torn response.
func TestMuxWorkerCrashMidRecord(t *testing.T) {
	b := newBed()
	worker := b.m.NewProcess("worker", 1<<20)
	reqR, reqW := b.m.Pipe2(worker, b.srv, false)
	respR, respW := b.m.Pipe2(b.srv, worker, false)
	mx := NewMux(NewConn(b.m, b.srv, respR, reqW, WireCopy, WireCopy), 4)

	b.eng.Go("worker", func(p *sim.Proc) {
		c := NewConn(b.m, worker, reqR, respW, WireCopy, WireCopy)
		// Drain the request records, then emit a record header promising
		// 5000 payload bytes, deliver half, and die.
		for i := 0; i < 2; i++ {
			if _, err := c.ReadRecord(p); err != nil {
				t.Errorf("worker read: %v", err)
				return
			}
		}
		var hdr [HeaderLen]byte
		Header{Type: RecStdout, ReqID: 1, Length: 5000}.encode(hdr[:])
		b.m.WritePOSIX(p, worker, respW, hdr[:])
		b.m.WritePOSIX(p, worker, respW, make([]byte, 2500))
		b.m.Close(p, worker, respW)
		b.m.Close(p, worker, reqR)
	})

	var gotErr error
	b.eng.Go("client", func(p *sim.Proc) {
		_, gotErr = mx.Do(p, Request{Params: []byte("/x")})
	})
	b.eng.Run()
	if gotErr == nil {
		t.Fatal("request survived a worker crash mid-record")
	}
	// The mux is terminally broken: later requests fail fast.
	b.eng.Go("client2", func(p *sim.Proc) {
		if _, err := mx.Do(p, Request{Params: []byte("/y")}); err == nil {
			t.Error("request on a broken mux succeeded")
		}
	})
	b.eng.Run()
}

// TestMuxFailWakesInRequestOrder breaks a mux with 16 requests in flight:
// every requester must see the error, in request-id order, so the resumed
// requesters' retries and replays are the same in every process.
func TestMuxFailWakesInRequestOrder(t *testing.T) {
	const n = 16
	for round := 0; round < 3; round++ {
		b := newBed()
		worker := b.m.NewProcess("worker", 1<<20)
		reqR, reqW := b.m.Pipe2(worker, b.srv, false)
		respR, respW := b.m.Pipe2(b.srv, worker, false)
		mx := NewMux(NewConn(b.m, b.srv, respR, reqW, WireCopy, WireCopy), n)

		b.eng.Go("worker", func(p *sim.Proc) {
			// Accept every request (BEGIN + PARAMS each), answer none, die.
			c := NewConn(b.m, worker, reqR, respW, WireCopy, WireCopy)
			for i := 0; i < 2*n; i++ {
				if _, err := c.ReadRecord(p); err != nil {
					t.Errorf("worker read: %v", err)
					return
				}
			}
			b.m.Close(p, worker, respW)
			b.m.Close(p, worker, reqR)
		})

		var order []int
		for i := 0; i < n; i++ {
			b.eng.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
				// Staggered starts: client i holds request id i+1.
				p.Sleep(time.Duration(i) * time.Microsecond)
				if _, err := mx.Do(p, Request{Params: []byte("/x")}); err == nil {
					t.Errorf("client %d: request survived the worker's death", i)
				}
				order = append(order, i)
			})
		}
		b.eng.Run()
		if len(order) != n {
			t.Fatalf("round %d: %d/%d requesters saw the failure", round, len(order), n)
		}
		for i, c := range order {
			if c != i {
				t.Fatalf("round %d: requesters saw the failure in order %v, want request-id order", round, order)
			}
		}
	}
}

// TestWorkerEPIPEOnResponsePipe closes the server side of a worker's
// connection while the worker is mid-response: the worker's STDOUT write
// sees the simulated EPIPE, the error is counted on its conn, and the
// in-flight request fails — nothing hangs, nothing is silently dropped.
func TestWorkerEPIPEOnResponsePipe(t *testing.T) {
	b := newBed()
	started := make(chan struct{}, 1) // sim is single-threaded: used as a flag
	var writeErr error
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 2, Name: "w",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			select {
			case started <- struct{}{}:
			default:
			}
			// Give the server time to slam the connection shut.
			p.Sleep(time.Millisecond)
			out := core.PackBytes(p, w.Proc.Pool, doc(1000))
			if writeErr = req.WriteStdout(p, out); writeErr != nil {
				out.Release()
			}
		},
	})

	var doErr error
	b.eng.Go("client", func(p *sim.Proc) {
		_, doErr = pool.Do(p, Request{Params: []byte("/x")})
	})
	b.eng.Go("closer", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		closePool(p, pool)
	})
	b.eng.Run()

	if doErr == nil {
		t.Error("request succeeded across a closed connection")
	}
	if writeErr == nil {
		t.Error("worker write to closed pipe reported no error")
	}
	if _, _, we := pool.Stats(); we == 0 {
		t.Error("pool counted no write errors")
	}
	select {
	case <-started:
	default:
		t.Fatal("handler never ran")
	}
}

// TestRefModePayloadACLIsolation: each worker's response payload lives in
// that worker's own pool. The pipe transfer grants the server's domain
// read access — and nothing else: worker B's domain must have no
// permission on worker A's buffers ("Isolate First, Then Share").
func TestRefModePayloadACLIsolation(t *testing.T) {
	b := newBed()
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 2, Depth: 2, Ref: true, Name: "w",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			out := core.PackBytes(p, w.Proc.Pool, doc(4096))
			if err := req.WriteStdout(p, out); err != nil {
				out.Release()
				return
			}
			req.End(p, 0)
		},
	})

	b.eng.Go("client", func(p *sim.Proc) {
		resp, err := pool.Do(p, Request{Params: []byte("/x")})
		if err != nil {
			t.Errorf("Do: %v", err)
			return
		}
		defer resp.Release()
		if resp.Body == nil {
			t.Error("ref-mode pool returned no aggregate body")
			return
		}
		workers := pool.Workers()
		// pick() starts round-robin at worker 0 for the first request.
		owner, other := workers[0], workers[1]
		for _, s := range resp.Body.Slices() {
			ch := s.Buf.Chunk()
			if s.Buf.Pool() != owner.Proc.Pool {
				t.Errorf("payload buffer from pool %v, want worker 0's", s.Buf.Pool())
			}
			if ch.Perm(b.srv.Domain) < mem.PermRead {
				t.Error("server domain not granted read on payload chunk")
			}
			if got := ch.Perm(other.Proc.Domain); got != mem.PermNone {
				t.Errorf("worker B holds perm %v on worker A's payload chunk, want none", got)
			}
		}
		// The aggregate is readable in the server's domain (would panic
		// otherwise).
		core.CheckReadable(resp.Body, b.srv.Domain)
	})
	b.eng.Run()
}

// TestPoolRoutesAroundDeadWorker breaks one worker of two and checks the
// pool keeps serving through the healthy one: a broken mux's instant
// failures leave its inflight count at zero, and naive least-loaded
// routing would funnel every request into it.
func TestPoolRoutesAroundDeadWorker(t *testing.T) {
	b := newBed()
	pool := echoPool(b, 2, 2, true)

	var victim *Worker
	b.eng.Go("killer", func(p *sim.Proc) {
		// Break worker 0's transport outright.
		victim = pool.Workers()[0]
		victim.mux.Close(p)
	})
	served := 0
	b.eng.Go("clients", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // after the kill settles
		for i := 0; i < 6; i++ {
			resp, err := pool.Do(p, Request{Params: []byte("/x")})
			if err != nil {
				t.Errorf("request %d failed despite a healthy worker: %v", i, err)
				continue
			}
			if string(resp.Payload()) != "/x" {
				t.Errorf("request %d: wrong payload", i)
			}
			resp.Release()
			served++
		}
	})
	b.eng.Run()

	if served != 6 {
		t.Fatalf("%d/6 requests served after a worker died", served)
	}
	if victim.mux.Err() == nil {
		t.Fatal("victim mux not actually broken")
	}
}

// TestMuxDepthBlocksAndDrains saturates one worker's mux and checks that
// excess requests queue for slots rather than exceeding depth, and all
// complete.
func TestMuxDepthBlocksAndDrains(t *testing.T) {
	b := newBed()
	maxSeen := 0
	inHandler := 0
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 3, Name: "w",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			inHandler++
			if inHandler > maxSeen {
				maxSeen = inHandler
			}
			p.Sleep(50 * time.Microsecond)
			inHandler--
			req.WriteStdoutBytes(p, []byte("ok"))
			req.End(p, 0)
		},
	})
	done := 0
	for i := 0; i < 10; i++ {
		b.eng.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			resp, err := pool.Do(p, Request{Params: []byte("/x")})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			resp.Release()
			done++
		})
	}
	b.eng.Run()
	if done != 10 {
		t.Fatalf("%d/10 requests completed", done)
	}
	if maxSeen > 3 {
		t.Errorf("saw %d concurrent handlers, depth is 3", maxSeen)
	}
	if maxSeen < 2 {
		t.Errorf("saw only %d concurrent handlers; mux should pipeline", maxSeen)
	}
}

// TestEndStatusIsPropagated checks the END record's status round-trip
// (it travels in the header's length field).
func TestEndStatusIsPropagated(t *testing.T) {
	b := newBed()
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 1, Name: "w",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			req.End(p, 503)
		},
	})
	b.eng.Go("client", func(p *sim.Proc) {
		resp, err := pool.Do(p, Request{Params: []byte("/x")})
		if err != nil {
			t.Errorf("Do: %v", err)
			return
		}
		if resp.Status != 503 {
			t.Errorf("status = %d, want 503", resp.Status)
		}
		if len(resp.Payload()) != 0 {
			t.Errorf("empty response carried %d bytes", len(resp.Payload()))
		}
		resp.Release()
	})
	b.eng.Run()
	if err := pool.Workers()[0].mux.Err(); err != nil && !errors.Is(err, ErrBroken) {
		t.Errorf("unexpected mux error: %v", err)
	}
}
