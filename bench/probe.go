package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/fcgi"
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// A probe times one operation of one layer's public API on the host, the
// per-layer view of host_us_per_req. Each reports probe.<layer>.<op>_ns and
// _allocs per operation.
type probe struct {
	name string
	// prepare builds the fixture and returns a loop running n operations.
	prepare func() func(n int)
}

var probes = []probe{
	{"probe.sim.event", func() func(int) {
		// Engine.After + Step: one event through the queue.
		e := sim.New()
		fn := func() {}
		return func(n int) {
			for i := 0; i < n; i++ {
				e.After(time.Nanosecond, fn)
				e.Step()
			}
		}
	}},
	{"probe.sim.handoff", func() func(int) {
		// Proc.Sleep: one engine → proc → engine round trip.
		return func(n int) {
			e := sim.New()
			e.Go("probe", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(time.Nanosecond)
				}
			})
			e.Run()
		}
	}},
	{"probe.sim.wheel", func() func(int) {
		// Wheel.Schedule, then half the timers fire and half are canceled.
		fn := func() {}
		return func(n int) {
			e := sim.New()
			w := e.Wheel()
			for done := 0; done < n; {
				batch := min(n-done, 1024)
				for i := 0; i < batch; i++ {
					t := w.Schedule(time.Duration(1+i%64)*time.Microsecond, fn)
					if i%2 == 1 {
						t.Cancel()
					}
				}
				e.Run()
				done += batch
			}
		}
	}},
	{"probe.core.agg", func() func(int) {
		// The response pattern: Pool.Pack a header, Concat the body,
		// Clone for the send, Release both.
		pool := probePool()
		body := core.PackBytes(nil, pool, make([]byte, docBytes))
		hdr := make([]byte, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				a := core.FromOwnedSlice(pool.Pack(nil, hdr))
				a.Concat(body)
				c := a.Clone()
				c.Release()
				a.Release()
			}
		}
	}},
	{"probe.netsim.xfer16k", func() func(int) {
		// Dial, then 16 KB written by the server and read by the client
		// over a 100 Mb/s link, then both sides close.
		doc := make([]byte, docBytes)
		return func(n int) {
			e := sim.New()
			costs := sim.DefaultCosts()
			vm := mem.NewVM(e, costs, 64<<20)
			server := netsim.NewHost(e, costs, "server", true, vm, nil)
			client := netsim.NewHost(e, costs, "client", false, nil, nil)
			link := netsim.NewLink(e, client, server, 100_000_000, 100*time.Microsecond)
			lst := netsim.NewListener(server)
			e.Go("client", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					ep := netsim.Dial(p, client, link, lst, netsim.ConnOpts{}).ClientEnd()
					got := 0
					for {
						d, ok := ep.Recv(p)
						if !ok {
							break
						}
						got += d.Len()
						d.Release()
					}
					if got != docBytes {
						panic(fmt.Sprintf("netsim probe read %d bytes, want %d", got, docBytes))
					}
					ep.Close(p)
				}
			})
			e.Go("server", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					ep := lst.Accept(p).ServerEnd()
					ep.Send(p, netsim.Payload{Data: doc}, nil)
					ep.Drain(p)
					ep.Close(p)
				}
			})
			e.Run()
		}
	}},
	{"probe.fcgi.record", func() func(int) {
		// DecodeRecord of one encoded 16 KB STDOUT record.
		rec := make([]byte, fcgi.HeaderLen+docBytes)
		rec[0] = byte(fcgi.RecStdout)
		rec[1] = fcgi.FlagEndStream
		binary.BigEndian.PutUint16(rec[2:], 1)
		binary.BigEndian.PutUint32(rec[4:], docBytes)
		return func(n int) {
			for i := 0; i < n; i++ {
				r, used, err := fcgi.DecodeRecord(rec)
				if err != nil || used != len(rec) || !bytes.Equal(r.Bytes[:8], rec[fcgi.HeaderLen:fcgi.HeaderLen+8]) {
					panic(fmt.Sprintf("fcgi probe decoded %d bytes: %v", used, err))
				}
			}
		}
	}},
	{"probe.fsim.read", func() func(int) {
		// FS.ReadRange of 16 KB, content only (no simulated disk wait).
		e := sim.New()
		costs := sim.DefaultCosts()
		fs := fsim.NewFS(e, costs, mem.NewVM(e, costs, 64<<20), fsim.NewDisk(e, costs))
		f := fs.Create("/probe", 64*docBytes)
		dst := make([]byte, docBytes)
		return func(n int) {
			for i := 0; i < n; i++ {
				fs.ReadRange(nil, f, int64(i%64)*docBytes, dst)
			}
		}
	}},
	{"probe.cksum.cached", func() func(int) {
		// Cache.Aggregate over a warm 64 KB aggregate: lookups only.
		agg := core.PackBytes(nil, probePool(), make([]byte, 64<<10))
		c := cksum.NewCache(0)
		costs := sim.DefaultCosts()
		c.Aggregate(nil, costs, agg)
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Aggregate(nil, costs, agg)
			}
		}
	}},
	{"probe.obs.span", func() func(int) {
		// Collector.Start, Span.Enter, Span.Finish: one traced request.
		col := obs.New()
		return func(n int) {
			for i := 0; i < n; i++ {
				t := sim.Time(3 * i)
				sp := col.Start("probe", t)
				sp.Enter(t+1, obs.PhaseSend)
				sp.Finish(t + 2)
				if i%1024 == 1023 {
					col.ResetMeters() // bound the retained spans
				}
			}
		}
	}},
}

// probePool is a kernel-domain buffer pool on a fresh 512 MB VM.
func probePool() *core.Pool {
	e := sim.New()
	vm := mem.NewVM(e, sim.DefaultCosts(), 512<<20)
	return core.NewPool(vm, vm.NewDomain("kernel", true), "probe")
}

// runProbes runs every probe: it grows the operation count until one loop
// takes probeTime, then reports that loop's time and allocations per
// operation.
func runProbes(probeTime time.Duration) map[string]float64 {
	out := make(map[string]float64, 2*len(probes))
	for _, pr := range probes {
		loop := pr.prepare()
		for n := 1; ; {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			loop(n)
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if el >= probeTime {
				out[pr.name+"_ns"] = float64(el.Nanoseconds()) / float64(n)
				out[pr.name+"_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
				break
			}
			// Aim 20% past probeTime, growing at most 100× a step.
			next := int(float64(n) * 1.2 * float64(probeTime) / float64(max(el, time.Microsecond)))
			n = max(min(next, 100*n), n+1)
		}
	}
	return out
}
