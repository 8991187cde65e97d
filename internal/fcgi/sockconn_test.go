package fcgi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// sockBed wires a raw socket channel between the server process and one
// worker process, optionally on a second machine — the substrate the
// socket transports build on, exposed for direct Conn framing tests.
type sockBed struct {
	b    *bed
	wm   *kernel.Machine
	wpr  *kernel.Process
	link *netsim.Link
}

func newSockBed(remote bool) *sockBed {
	b := newBed()
	sb := &sockBed{b: b, wm: b.m}
	if remote {
		sb.wm = kernel.NewMachine(b.eng, b.m.Costs, kernel.Config{HostName: "wkr"})
		sb.link = netsim.NewLink(b.eng, b.m.Host, sb.wm.Host, LANBps, LANDelay)
	} else {
		sb.link = netsim.NewLink(b.eng, b.m.Host, b.m.Host, LoopbackBps, LoopbackDelay)
	}
	sb.wpr = sb.wm.NewProcess("wkr", 1<<20)
	return sb
}

// conns builds the two ends of a response-direction channel: the worker
// writes records in respWire mode, the server reads them.
func (sb *sockBed) conns(ref bool, respWire WireMode) (srvConn, wkrConn *Conn) {
	opts := netsim.ConnOpts{ServerRefMode: ref}
	sfd, wfd := kernel.SocketPair(sb.b.m, sb.b.srv, sb.wm, sb.wpr, sb.link, opts)
	wkrConn = NewConn(sb.wm, sb.wpr, wfd, wfd, WireCopy, respWire)
	srvConn = NewConn(sb.b.m, sb.b.srv, sfd, sfd, respWire, WireCopy)
	return srvConn, wkrConn
}

// pipeConns is conns over a pipe between the two processes of a local
// bed: a reference pipe for WireRef, a copy pipe for WireCopy.
func (sb *sockBed) pipeConns(respWire WireMode) (srvConn, wkrConn *Conn) {
	rfd, wfd := sb.b.m.Pipe2(sb.b.srv, sb.wpr, respWire == WireRef)
	wkrConn = NewConn(sb.wm, sb.wpr, wfd, wfd, WireCopy, respWire)
	srvConn = NewConn(sb.b.m, sb.b.srv, rfd, rfd, respWire, WireCopy)
	return srvConn, wkrConn
}

// TestConnFramesOverSocketStream drives records through every wire mode
// on every channel kind, with direct I/O and again with both ends in ring
// mode. The sizes straddle MSS segment boundaries, the 64 KB socket send
// window and the pipe buffer, so on sockets headers land mid-delivery and
// payloads span many deliveries, a reference pipe hands over one whole
// record per read, and ring reads coalesce several records into one
// refill: the one stream decoder and both refill sources see every case.
func TestConnFramesOverSocketStream(t *testing.T) {
	cases := []struct {
		name              string
		pipe, remote, ref bool
		mode              WireMode
	}{
		{"copy", false, false, false, WireCopy},
		{"ref-stream", false, false, true, WireRef},
		{"boundary", false, true, false, WireBoundary},
		{"pipe-copy", true, false, false, WireCopy},
		{"pipe-ref", true, false, true, WireRef},
	}
	for _, ring := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if ring {
				name += "-ring"
			}
			t.Run(name, func(t *testing.T) {
				sb := newSockBed(tc.remote)
				var srvConn, wkrConn *Conn
				if tc.pipe {
					srvConn, wkrConn = sb.pipeConns(tc.mode)
				} else {
					srvConn, wkrConn = sb.conns(tc.ref, tc.mode)
				}
				if ring {
					srvConn.EnableRing()
					wkrConn.EnableRing()
				}
				sizes := []int{40, 100_000, 5, 3000}
				payloads := make([][]byte, len(sizes))
				for i, n := range sizes {
					payloads[i] = doc(n)
				}
				sb.b.eng.Go("writer", func(p *sim.Proc) {
					defer wkrConn.Close(p)
					for i, pay := range payloads {
						rec := Record{Header: Header{Type: RecStdout, ReqID: uint16(i + 1)}}
						if tc.mode == WireCopy {
							rec.Bytes = pay
						} else {
							rec.Agg = core.PackBytes(p, sb.wpr.Pool, pay)
						}
						if err := wkrConn.WriteRecord(p, rec); err != nil {
							t.Errorf("WriteRecord %d: %v", i, err)
							return
						}
					}
					err := wkrConn.WriteRecord(p, Record{Header: Header{Type: RecEnd, Flags: FlagEndStream, ReqID: 1, Length: 7}})
					if err != nil {
						t.Errorf("WriteRecord END: %v", err)
					}
				})
				sb.b.eng.Go("reader", func(p *sim.Proc) {
					defer srvConn.Close(p)
					for i, pay := range payloads {
						rec, err := srvConn.ReadRecord(p)
						if err != nil {
							t.Errorf("ReadRecord %d: %v", i, err)
							return
						}
						if rec.Type != RecStdout || rec.ReqID != uint16(i+1) {
							t.Errorf("record %d: got %v req %d", i, rec.Type, rec.ReqID)
						}
						if !bytes.Equal(rec.payloadBytes(), pay) {
							t.Errorf("record %d (%d bytes): payload corrupted across deliveries", i, len(pay))
						}
						rec.Release()
					}
					end, err := srvConn.ReadRecord(p)
					if err != nil || end.Type != RecEnd || end.Length != 7 {
						t.Errorf("END record = %+v, %v; want status 7", end.Header, err)
					}
					end.Release()
				})
				sb.b.eng.Run()
				if n := sb.b.eng.LiveProcs(); n != 0 {
					t.Errorf("%d procs still live after both ends closed", n)
				}
			})
		}
	}
}

// TestBoundaryWriteChargesSingleCopy pins the machine-boundary rule at
// the Conn layer: a sealed aggregate leaving the machine is charged
// exactly one copy per byte (the gather into the socket send buffer);
// the receive side reassembles early-demultiplexed buffers uncharged.
func TestBoundaryWriteChargesSingleCopy(t *testing.T) {
	const n = 64 << 10
	sb := newSockBed(true)
	srvConn, wkrConn := sb.conns(false, WireBoundary)
	costs := sb.b.m.Costs
	sb.b.eng.Go("writer", func(p *sim.Proc) {
		agg := core.PackBytes(p, sb.wpr.Pool, doc(n)) // producer copy, excluded below
		costs.ResetMeters()
		if err := wkrConn.WriteRecord(p, Record{Header: Header{Type: RecStdout, ReqID: 1}, Agg: agg}); err != nil {
			t.Errorf("WriteRecord: %v", err)
		}
	})
	sb.b.eng.Go("reader", func(p *sim.Proc) {
		rec, err := srvConn.ReadRecord(p)
		if err != nil || rec.payloadLen() != n {
			t.Errorf("ReadRecord: len %d, %v", rec.payloadLen(), err)
			return
		}
		rec.Release()
	})
	sb.b.eng.Run()
	if copied, want := costs.MeterCopiedBytes(), int64(HeaderLen+n); copied != want {
		t.Errorf("boundary record charged %d copied bytes, want exactly %d (header + payload, once)", copied, want)
	}
}

// buildTransport wires the named transport on bed b.
func buildTransport(b *bed, name string, ref bool) Transport {
	switch name {
	case "pipe":
		return NewPipeTransport(b.m, b.srv, ref)
	case "sock-local":
		return NewLoopbackTransport(b.m, b.srv, ref)
	case "sock-remote":
		tr, _ := NewLANTransport(b.m, b.srv, ref)
		return tr
	}
	panic("unknown transport " + name)
}

// TestPoolServesOverEveryTransport runs the echo workload (params echoed
// back, both payload modes) over each transport: the transport changes
// the cost model, never the bytes.
func TestPoolServesOverEveryTransport(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for _, name := range []string{"pipe", "sock-local", "sock-remote"} {
			t.Run(fmt.Sprintf("%s/ref=%v", name, ref), func(t *testing.T) {
				b := newBed()
				tr := buildTransport(b, name, ref)
				pool := NewWorkerPool(PoolConfig{
					Machine: b.m, Server: b.srv, Workers: 2, Depth: 4,
					Ref: ref, Transport: tr, Name: "echo",
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
						if resp.Status != 6 {
							t.Errorf("status %d = %d over %s", i, resp.Status, name)
						}
						resp.Release()
						done++
					})
				}
				b.eng.Run()
				if done != 6 {
					t.Fatalf("%d/6 requests served over %s", done, name)
				}
			})
		}
	}
}

// TestMuxInterleavesRecordsOverSocket multiplexes concurrent requests of
// very different sizes over ONE socket channel in each stream mode:
// chunked responses interleave at record granularity on the wire and
// must reassemble to exactly their own request's bytes.
func TestMuxInterleavesRecordsOverSocket(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remote bool
	}{{"sock-local", false}, {"sock-remote", true}} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBed()
			var tr Transport
			if tc.remote {
				tr, _ = NewLANTransport(b.m, b.srv, true)
			} else {
				tr = NewLoopbackTransport(b.m, b.srv, true)
			}
			pool := NewWorkerPool(PoolConfig{
				Machine: b.m, Server: b.srv, Workers: 1, Depth: 8,
				Ref: true, Transport: tr, Name: "ilv",
				Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
					var size int
					fmt.Sscanf(string(req.Params), "%d", &size)
					p.Sleep(time.Duration(size%7) * time.Microsecond)
					body := doc(size)
					// Hand-chunked records so streams overlap on the wire.
					const chunk = 16 << 10
					for off := 0; off < len(body); off += chunk {
						end := off + chunk
						if end > len(body) {
							end = len(body)
						}
						out := core.PackBytes(p, w.Proc.Pool, body[off:end])
						if err := req.WriteStdout(p, out); err != nil {
							out.Release()
							return
						}
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
			if pool.records() < int64(len(sizes)*4) {
				t.Errorf("only %d records moved; expected chunked multiplexing", pool.records())
			}
		})
	}
}

// TestStreamReadTornRecordIsUnexpectedEOF kills the writer between a
// record's header and its payload — possible on stream modes, where the
// two travel as separate deliveries. The reader must report a torn
// record (io.ErrUnexpectedEOF), never a clean end of stream.
func TestStreamReadTornRecordIsUnexpectedEOF(t *testing.T) {
	sb := newSockBed(true)
	srvConn, wkrConn := sb.conns(false, WireBoundary)
	sb.b.eng.Go("writer", func(p *sim.Proc) {
		var hdr [HeaderLen]byte
		Header{Type: RecStdout, ReqID: 1, Length: 5000}.encode(hdr[:])
		if _, err := sb.wm.WritePOSIX(p, sb.wpr, wkrConn.wfd, hdr[:]); err != nil {
			t.Errorf("header write: %v", err)
		}
		wkrConn.Close(p) // dies before any payload byte
	})
	var readErr error
	sb.b.eng.Go("reader", func(p *sim.Proc) {
		_, readErr = srvConn.ReadRecord(p)
	})
	sb.b.eng.Run()
	if readErr != io.ErrUnexpectedEOF {
		t.Fatalf("torn record read = %v, want io.ErrUnexpectedEOF", readErr)
	}
}

// TestSocketResetSurfacesThroughMux kills the worker's end of a socket
// channel mid-request: the EPIPE-equivalent reset must fail the in-flight
// request through the mux instead of hanging it, and leave the mux
// terminally broken.
func TestSocketResetSurfacesThroughMux(t *testing.T) {
	b := newBed()
	tr, _ := NewLANTransport(b.m, b.srv, true)
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 2,
		Ref: true, Transport: tr, Name: "rst",
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
	b.eng.Run()
	if doErr == nil {
		t.Fatal("request survived a worker socket reset")
	}
	if err := pool.Workers()[0].mux.Err(); !errors.Is(err, ErrBroken) {
		t.Errorf("mux error = %v, want ErrBroken", err)
	}
}

// TestAcceptanceRemoteRefBoundaryCopiesPayloadOnce is the PR's
// acceptance pin: with 4 remote socket workers and ref mode requested,
// payload bytes are charged as copies EXACTLY once — at the machine
// boundary — while the same workload on pipe-local ref workers charges
// zero payload copies (TestAcceptanceRefModeZeroPayloadCopies, unchanged)
// and a copy-mode remote pool charges at least twice per payload byte.
func TestAcceptanceRemoteRefBoundaryCopiesPayloadOnce(t *testing.T) {
	const (
		workers  = 4
		depth    = 8
		M        = workers * depth // 32 concurrent requests
		docBytes = 64 << 10
	)
	params := []byte("/doc")

	run := func(ref bool) int64 {
		b := newBed()
		tr, _ := NewLANTransport(b.m, b.srv, ref)
		aggs := NewAggCache()
		raws := NewRawCache()
		pool := NewWorkerPool(PoolConfig{
			Machine: b.m, Server: b.srv, Workers: workers, Depth: depth,
			Ref: ref, Transport: tr, Name: "rdoc",
			Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
				if ref {
					agg := aggs.GetOrPack(p, w, int64(docBytes), func() []byte { return doc(docBytes) })
					req.Reply(p, agg, 0)
					return
				}
				raw := raws.GetOrGen(w, int64(docBytes), func() []byte { return doc(docBytes) })
				req.ReplyBytes(p, raw, 0)
			},
		})
		// Warm round: every worker's document aggregate is packed (the
		// charged producer copy) outside measurement.
		runRound(t, b, pool, M, params, docBytes)
		b.m.Costs.ResetMeters()
		runRound(t, b, pool, M, params, docBytes)
		return b.m.Costs.MeterCopiedBytes()
	}

	// Request-direction framing crosses the copy-mode request path twice
	// (into the sender's socket buffer, out at the worker's POSIX read).
	reqFraming := int64(2 * M * (2*HeaderLen + len(params)))
	// Each response is one STDOUT and one END record: headers charged
	// once at the boundary write, payload charged exactly once.
	respBoundary := int64(M * (2*HeaderLen + docBytes))

	if copied, want := run(true), reqFraming+respBoundary; copied != want {
		t.Errorf("remote ref pool charged %d copied bytes, want exactly %d (payload once at the boundary)",
			copied, want)
	}
	if copied, min := run(false), reqFraming+int64(2*M*docBytes); copied < min {
		t.Errorf("remote copy pool charged %d copied bytes, want ≥ %d (payload in and out)", copied, min)
	}
}
