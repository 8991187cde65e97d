package netsim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// FuzzLossyTransfer sends 192 KB from server to client in 16 KB writes
// across a link whose FaultPlan drops data segments, for any plan seed,
// drop probability (folded into [0, 0.2)), one-way delay (folded into
// 0-100 µs), offload on or off, and ref or copy mode. With shut set the
// client abandons the stream: it shuts its receive side as soon as the
// reassembly queue holds a chunk, or halfway if nothing is ever lost. It
// checks three things:
//   - the bytes the client reads arrive intact and in order, all of them
//     unless it shut down;
//   - once both ends have closed, no buffer page stays live beyond the
//     pool's open packing chunk, out-of-order chunks included, and no
//     socket-buffer page stays reserved;
//   - a plan that dropped nothing retransmitted nothing.
func FuzzLossyTransfer(f *testing.F) {
	f.Add(uint64(1), 0.05, uint16(100), false, true, false)
	f.Add(uint64(7), 0.01, uint16(10), true, true, false)
	f.Add(uint64(3), 0.1, uint16(50), false, false, true)
	f.Add(uint64(42), 0.03, uint16(1), true, false, true)
	f.Add(uint64(9), 0.0, uint16(100), true, true, false)
	f.Fuzz(func(t *testing.T, seed uint64, drop float64, delayUs uint16, offload, ref, shut bool) {
		if math.IsNaN(drop) || math.IsInf(drop, 0) {
			drop = 0
		}
		drop = math.Mod(math.Abs(drop), 0.2)
		delay := time.Duration(delayUs%101) * time.Microsecond
		const total, write = 192 << 10, 16 << 10
		want := pattern(total)

		r := newRig(ref, nil, delay)
		r.server.SetOffload(offload)
		r.client.SetOffload(offload)
		fp := &FaultPlan{DropProb: drop, Seed: seed}
		r.link.SetFaultPlan(fp)
		var got []byte
		var client *Endpoint
		r.eng.Go("client", func(p *sim.Proc) {
			client = Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: ref}).ClientEnd()
			if shut {
				watchReasm(r.eng, client)
			}
			for len(got) < total {
				d, ok := client.Recv(p)
				if !ok {
					break
				}
				got = append(got, d.Bytes()...)
				d.Release()
				if shut && len(got) >= total/2 {
					client.ShutdownRecv()
				}
			}
			client.Close(p)
		})
		r.eng.Go("server", func(p *sim.Proc) {
			ep := r.lst.Accept(p).ServerEnd()
			for off := 0; off < total; off += write {
				if ref {
					ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want[off:off+write])}, nil)
				} else {
					ep.Send(p, Payload{Data: want[off : off+write]}, nil)
				}
			}
			ep.Drain(p)
			ep.Close(p)
		})
		r.eng.Run()

		if !bytes.Equal(got, want[:len(got)]) || !shut && len(got) != total {
			t.Fatalf("read %d bytes of %d, intact prefix %v", len(got), total, bytes.Equal(got, want[:len(got)]))
		}
		if live := r.pool.LivePages(); live > mem.PagesPerChunk {
			t.Fatalf("%d buffer pages live after both ends closed, more than the pool's open packing chunk", live)
		}
		if pages := r.vm.UsedBy(mem.TagSockBuf); pages != 0 {
			t.Fatalf("%d socket-buffer pages reserved after both ends closed", pages)
		}
		if dropped := fp.dropped; dropped == 0 {
			if segs, _ := r.server.RetransStats(); segs != 0 {
				t.Fatalf("a plan that dropped nothing retransmitted %d segments", segs)
			}
		}
	})
}

// watchReasm shuts e's receive side, from engine context, at the first
// poll that finds a chunk on its reassembly queue. It polls every 10 µs
// until then, or until e's receive side has shut or reached its FIN.
func watchReasm(eng *sim.Engine, e *Endpoint) {
	var poll func()
	poll = func() {
		switch {
		case e.rcvShut || e.rcvClosed:
		case e.lx != nil && len(e.lx.reasm) > 0:
			e.ShutdownRecv()
		default:
			eng.After(10*time.Microsecond, poll)
		}
	}
	poll()
}
