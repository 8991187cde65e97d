package uring

import (
	"bytes"
	"errors"
	"testing"

	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// bed is one machine with a writer and reader process joined by a pipe.
type bed struct {
	eng    *sim.Engine
	m      *kernel.Machine
	wr, rd *kernel.Process
	rfd    int
	wfd    int
}

func newBed(t *testing.T, mode ipcsim.Mode) *bed {
	t.Helper()
	eng := sim.New()
	m := kernel.NewMachine(eng, sim.DefaultCosts(), kernel.Config{})
	wr := m.NewProcess("writer", 1<<20)
	rd := m.NewProcess("reader", 1<<20)
	rfd, wfd := m.Pipe2(rd, wr, mode)
	return &bed{eng: eng, m: m, wr: wr, rd: rd, rfd: rfd, wfd: wfd}
}

func doc(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*3 + 1)
	}
	return d
}

// TestSubmitBatchesSyscalls is the subsystem's reason to exist: N ops
// through the ring cost exactly two charged syscalls (one Submit, one
// Reap), where the direct path charges N.
func TestSubmitBatchesSyscalls(t *testing.T) {
	b := newBed(t, ipcsim.ModeRef)
	const ops = 8
	data := doc(2000) // ops × len(data) fits the pipe: no write blocks on drain

	var drained []byte
	b.eng.Go("reader", func(p *sim.Proc) {
		// Drain only after the measurement window closes, so the reader's
		// own syscalls stay out of the machine-wide meter delta.
		p.Sleep(sim.Duration(1e9))
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, kernel.MaxIO)
			if err != nil {
				return
			}
			drained = append(drained, a.Materialize()...)
			a.Release()
		}
	})

	var rung *Ring
	var cqes []kernel.CQE
	var before, after int64
	b.eng.Go("writer", func(p *sim.Proc) {
		rung = New(b.m, b.wr)
		before = b.m.Costs.MeterSyscallCount()
		for i := 0; i < ops; i++ {
			rung.PrepIOLWrite(b.wfd, core.PackBytes(p, b.wr.Pool, data))
		}
		if got := rung.Submit(p); got != ops {
			t.Errorf("Submit accepted %d ops, want %d", got, ops)
		}
		cqes = rung.Reap(p, ops)
		after = b.m.Costs.MeterSyscallCount()
		b.m.Close(p, b.wr, b.wfd)
	})
	b.eng.Run()

	if got := after - before; got != 2 {
		t.Errorf("ring path charged %d syscalls for %d ops, want 2", got, ops)
	}
	if len(cqes) != ops {
		t.Fatalf("reaped %d completions, want %d", len(cqes), ops)
	}
	for _, cqe := range cqes {
		if cqe.Err != nil {
			t.Errorf("token %d: unexpected error %v", cqe.Token, cqe.Err)
		}
	}
	if len(drained) != ops*len(data) {
		t.Errorf("reader drained %d bytes, want %d", len(drained), ops*len(data))
	}
	if opsN, submits, reaps := rung.Stats(); opsN != ops || submits != 1 || reaps != 1 {
		t.Errorf("Stats = (%d ops, %d submits, %d reaps), want (%d, 1, 1)", opsN, submits, reaps, ops)
	}
}

// TestPerOpErrors: one bad entry in a batch fails alone; its neighbors
// complete normally, exactly as if each had been its own syscall.
func TestPerOpErrors(t *testing.T) {
	b := newBed(t, ipcsim.ModeRef)
	data := doc(500)

	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, kernel.MaxIO)
			if err != nil {
				return
			}
			a.Release()
		}
	})

	var byToken map[uint64]kernel.CQE
	var good1, bad, good2 uint64
	b.eng.Go("writer", func(p *sim.Proc) {
		rung := New(b.m, b.wr)
		good1 = rung.PrepIOLWrite(b.wfd, core.PackBytes(p, b.wr.Pool, data))
		bad = rung.PrepIOLWrite(999, core.PackBytes(p, b.wr.Pool, data))
		good2 = rung.PrepIOLWrite(b.wfd, core.PackBytes(p, b.wr.Pool, data))
		rung.Submit(p)
		byToken = map[uint64]kernel.CQE{}
		for _, cqe := range rung.Reap(p, 3) {
			byToken[cqe.Token] = cqe
		}
		b.m.Close(p, b.wr, b.wfd)
	})
	b.eng.Run()

	if err := byToken[bad].Err; !errors.Is(err, kernel.ErrBadFD) {
		t.Errorf("bad-fd op: err = %v, want ErrBadFD", err)
	}
	for _, tok := range []uint64{good1, good2} {
		if err := byToken[tok].Err; err != nil {
			t.Errorf("good op %d: err = %v, want nil", tok, err)
		}
	}
}

// TestCloseBeforeReap: fds resolve at execution time, so an op whose fd is
// closed between Submit and execution completes with ErrBadFD instead of
// writing through a stale table entry.
func TestCloseBeforeReap(t *testing.T) {
	b := newBed(t, ipcsim.ModeRef)

	b.eng.Go("writer", func(p *sim.Proc) {
		rung := New(b.m, b.wr)
		rung.PrepIOLWrite(b.wfd, core.PackBytes(p, b.wr.Pool, doc(100)))
		rung.Submit(p)
		// The worker has not run yet: its first dispatch is an event, and
		// this process hasn't parked since Submit queued the op. Close with
		// a nil proc (uncharged, so no park inside the close either) to
		// yank the fd out from under the op deterministically.
		b.m.Close(nil, b.wr, b.wfd)
		cqes := rung.Reap(p, 1)
		if len(cqes) != 1 {
			t.Fatalf("reaped %d completions, want 1", len(cqes))
		}
		if !errors.Is(cqes[0].Err, kernel.ErrBadFD) {
			t.Errorf("close-before-exec: err = %v, want ErrBadFD", cqes[0].Err)
		}
	})
	b.eng.Run()
}

// TestDupSurvivesClose: an op submitted against a Dup'd fd keeps working
// when the original closes first — the open-file entry is shared, like
// POSIX dup(2), and only the last reference tears it down.
func TestDupSurvivesClose(t *testing.T) {
	b := newBed(t, ipcsim.ModeRef)
	data := doc(300)

	var got []byte
	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, kernel.MaxIO)
			if err != nil {
				return
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})

	b.eng.Go("writer", func(p *sim.Proc) {
		dupfd, err := b.m.Dup(p, b.wr, b.wfd)
		if err != nil {
			t.Fatalf("Dup: %v", err)
		}
		rung := New(b.m, b.wr)
		rung.PrepIOLWrite(dupfd, core.PackBytes(p, b.wr.Pool, data))
		rung.Submit(p)
		b.m.Close(p, b.wr, b.wfd) // original fd gone; entry lives via dup
		cqes := rung.Reap(p, 1)
		if len(cqes) != 1 || cqes[0].Err != nil {
			t.Fatalf("op on dup'd fd after closing original: %+v", cqes)
		}
		b.m.Close(p, b.wr, dupfd)
	})
	b.eng.Run()

	if !bytes.Equal(got, data) {
		t.Errorf("reader got %d bytes, want %d", len(got), len(data))
	}
}

// TestReadCoalescing: deliveries already queued when a ring read executes
// fold into one completion — the receive-side half of the economy.
func TestReadCoalescing(t *testing.T) {
	b := newBed(t, ipcsim.ModeRef)
	const chunks = 6
	chunk := doc(1000)

	b.eng.Go("writer", func(p *sim.Proc) {
		for i := 0; i < chunks; i++ {
			if err := b.m.IOLWrite(p, b.wr, b.wfd, core.PackBytes(p, b.wr.Pool, chunk)); err != nil {
				t.Errorf("IOLWrite: %v", err)
			}
		}
		b.m.Close(p, b.wr, b.wfd)
	})

	b.eng.Go("reader", func(p *sim.Proc) {
		// Let every chunk land in the pipe before the ring read runs.
		p.Sleep(sim.Duration(1e9))
		rung := New(b.m, b.rd)
		rung.PrepIOLRead(b.rfd, kernel.MaxIO)
		rung.Submit(p)
		cqes := rung.Reap(p, 1)
		if len(cqes) != 1 || cqes[0].Err != nil {
			t.Fatalf("ring read: %+v", cqes)
		}
		if got := cqes[0].Res; got != chunks*int64(len(chunk)) {
			t.Errorf("coalesced read returned %d bytes, want %d", got, chunks*len(chunk))
		}
		cqes[0].Agg.Release()
	})
	b.eng.Run()
}

// TestPollerListenerBacklog: the satellite's listener edge — several
// connections pending before the loop looks. One Wait reports Acceptable,
// and the loop drains every pending accept before the next (charged)
// Wait, with the non-blocking listener's ErrAgain marking the bottom.
func TestPollerListenerBacklog(t *testing.T) {
	const dials = 3
	eng := sim.New()
	costs := sim.DefaultCosts()
	m := kernel.NewMachine(eng, costs, kernel.Config{HostName: "server"})
	pr := m.NewProcess("srv", 1<<20)
	client := netsim.NewHost(eng, costs, "client", false, nil, nil)
	link := netsim.NewLink(eng, client, m.Host, 100_000_000, sim.Duration(1e6))
	lst := netsim.NewListener(m.Host)
	lfd := m.Listen(pr, lst)

	for i := 0; i < dials; i++ {
		eng.Go("dial", func(p *sim.Proc) {
			netsim.Dial(p, client, link, lst, netsim.ConnOpts{Tss: 64 << 10})
		})
	}

	accepted := 0
	eng.Go("srv", func(p *sim.Proc) {
		if err := m.SetNonblock(p, pr, lfd, true); err != nil {
			t.Fatalf("SetNonblock: %v", err)
		}
		po := kernel.NewReadyDesc(m, pr)
		pr.Install(po)
		if err := po.Watch(lfd, kernel.Acceptable); err != nil {
			t.Fatalf("Add: %v", err)
		}
		evs := po.Wait(p)
		if len(evs) != 1 || evs[0].FD != lfd || evs[0].Ready&kernel.Acceptable == 0 {
			t.Fatalf("Wait = %+v, want one Acceptable event on %d", evs, lfd)
		}
		for {
			fd, err := m.Accept(p, pr, lfd)
			if errors.Is(err, kernel.ErrAgain) {
				break
			}
			if err != nil {
				t.Fatalf("Accept: %v", err)
			}
			m.Close(p, pr, fd)
			accepted++
		}
	})
	eng.Run()

	if accepted != dials {
		t.Errorf("drained %d pending accepts, want %d", accepted, dials)
	}
}

// TestRingAccept: accepts flow through the ring like any other op, each
// completion carrying the new connection's fd.
func TestRingAccept(t *testing.T) {
	const dials = 2
	eng := sim.New()
	costs := sim.DefaultCosts()
	m := kernel.NewMachine(eng, costs, kernel.Config{HostName: "server"})
	pr := m.NewProcess("srv", 1<<20)
	client := netsim.NewHost(eng, costs, "client", false, nil, nil)
	link := netsim.NewLink(eng, client, m.Host, 100_000_000, sim.Duration(1e6))
	lst := netsim.NewListener(m.Host)
	lfd := m.Listen(pr, lst)

	for i := 0; i < dials; i++ {
		eng.Go("dial", func(p *sim.Proc) {
			netsim.Dial(p, client, link, lst, netsim.ConnOpts{Tss: 64 << 10})
		})
	}

	var fds []int
	eng.Go("srv", func(p *sim.Proc) {
		rung := New(m, pr)
		for i := 0; i < dials; i++ {
			rung.PrepAccept(lfd)
		}
		rung.Submit(p)
		for _, cqe := range rung.Reap(p, dials) {
			if cqe.Err != nil {
				t.Errorf("ring accept: %v", cqe.Err)
				continue
			}
			fds = append(fds, int(cqe.Res))
		}
		for _, fd := range fds {
			if d, err := pr.Desc(fd); err != nil || d.Kind() != kernel.KindSocket {
				t.Errorf("fd %d: not an open socket (%v)", fd, err)
			}
		}
	})
	eng.Run()

	if len(fds) != dials {
		t.Errorf("ring accepted %d connections, want %d", len(fds), dials)
	}
}

// TestPollerRingNesting: a readiness descriptor watching a Ring's fd sees
// it become readable when completions land — the wiring the httpd event
// loop runs on.
func TestPollerRingNesting(t *testing.T) {
	b := newBed(t, ipcsim.ModeRef)

	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, kernel.MaxIO)
			if err != nil {
				return
			}
			a.Release()
		}
	})

	b.eng.Go("writer", func(p *sim.Proc) {
		rung := New(b.m, b.wr)
		po := kernel.NewReadyDesc(b.m, b.wr)
		b.wr.Install(po)
		if err := po.Watch(rung.FD(), kernel.Readable); err != nil {
			t.Fatalf("Add(ring): %v", err)
		}
		rung.PrepIOLWrite(b.wfd, core.PackBytes(p, b.wr.Pool, doc(100)))
		rung.Submit(p)
		evs := po.Wait(p)
		if len(evs) != 1 || evs[0].FD != rung.FD() {
			t.Fatalf("Wait = %+v, want ring fd readable", evs)
		}
		if cqes := rung.Reap(p, 1); len(cqes) != 1 || cqes[0].Err != nil {
			t.Fatalf("Reap after readiness: %+v", cqes)
		}
		b.m.Close(p, b.wr, b.wfd)
	})
	b.eng.Run()
}
