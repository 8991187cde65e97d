package kernel

import (
	"errors"
	"testing"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// ringBed is one machine with a writer and reader process joined by a pipe.
type ringBed struct {
	eng    *sim.Engine
	m      *Machine
	wr, rd *Process
	rfd    int
	wfd    int
}

func newRingBed(t *testing.T, ref bool) *ringBed {
	t.Helper()
	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{})
	wr := m.NewProcess("writer", 1<<20)
	rd := m.NewProcess("reader", 1<<20)
	rfd, wfd := m.Pipe2(rd, wr, ref)
	return &ringBed{eng: eng, m: m, wr: wr, rd: rd, rfd: rfd, wfd: wfd}
}

func ringDoc(n int) []byte {
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
	b := newRingBed(t, true)
	const ops = 8
	data := ringDoc(2000) // ops × len(data) fits the pipe: no write blocks on drain

	var drained []byte
	b.eng.Go("reader", func(p *sim.Proc) {
		// Drain only after the measurement window closes, so the reader's
		// own syscalls stay out of the machine-wide meter delta.
		p.Sleep(sim.Duration(1e9))
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, MaxIO)
			if err != nil {
				return
			}
			drained = append(drained, a.Materialize()...)
			a.Release()
		}
	})

	var rung *RingDesc
	var cqes []CQE
	var before, after int64
	b.eng.Go("writer", func(p *sim.Proc) {
		rung = NewRingDesc(b.m, b.wr)
		before = b.m.Costs.MeterSyscallCount()
		for i := 0; i < ops; i++ {
			rung.Prep(SQE{Op: OpIOLWrite, FD: b.wfd, Agg: core.PackBytes(p, b.wr.Pool, data), User: i})
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
			t.Errorf("op %v: unexpected error %v", cqe.User, cqe.Err)
		}
	}
	if len(drained) != ops*len(data) {
		t.Errorf("reader drained %d bytes, want %d", len(drained), ops*len(data))
	}
	if rung.submitted != ops {
		t.Errorf("ring counted %d ops submitted, want %d", rung.submitted, ops)
	}
}

// TestPerOpErrors: one bad entry in a batch fails alone; its neighbors
// complete normally, exactly as if each had been its own syscall.
func TestPerOpErrors(t *testing.T) {
	b := newRingBed(t, true)
	data := ringDoc(500)

	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, MaxIO)
			if err != nil {
				return
			}
			a.Release()
		}
	})

	var byUser map[string]CQE
	b.eng.Go("writer", func(p *sim.Proc) {
		rung := NewRingDesc(b.m, b.wr)
		rung.Prep(SQE{Op: OpIOLWrite, FD: b.wfd, Agg: core.PackBytes(p, b.wr.Pool, data), User: "good1"})
		rung.Prep(SQE{Op: OpIOLWrite, FD: 999, Agg: core.PackBytes(p, b.wr.Pool, data), User: "bad"})
		rung.Prep(SQE{Op: OpIOLWrite, FD: b.wfd, Agg: core.PackBytes(p, b.wr.Pool, data), User: "good2"})
		rung.Submit(p)
		byUser = map[string]CQE{}
		for _, cqe := range rung.Reap(p, 3) {
			byUser[cqe.User.(string)] = cqe
		}
		b.m.Close(p, b.wr, b.wfd)
	})
	b.eng.Run()

	if err := byUser["bad"].Err; !errors.Is(err, ErrBadFD) {
		t.Errorf("bad-fd op: err = %v, want ErrBadFD", err)
	}
	for _, user := range []string{"good1", "good2"} {
		if err := byUser[user].Err; err != nil {
			t.Errorf("good op %s: err = %v, want nil", user, err)
		}
	}
}

// TestCompletionCarriesOpAndUser: every completion hands back its entry's
// Op and User — a success, a per-op error, and an entry a closed ring
// refused alike — and the refused write's payload is released.
func TestCompletionCarriesOpAndUser(t *testing.T) {
	b := newRingBed(t, true)

	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, MaxIO)
			if err != nil {
				return
			}
			a.Release()
		}
	})

	byUser := map[string]CQE{}
	var refused []core.Slice
	b.eng.Go("writer", func(p *sim.Proc) {
		rung := NewRingDesc(b.m, b.wr)
		rung.Prep(SQE{Op: OpWritePOSIX, FD: b.wfd, Buf: ringDoc(100), User: "ok"})
		rung.Prep(SQE{Op: OpIOLWrite, FD: 999, Agg: core.PackBytes(p, b.wr.Pool, ringDoc(100)), User: "badfd"})
		rung.Submit(p)
		cqes := rung.Reap(p, 2)
		rung.Close(p)
		// Larger than a chunk, the payload gets buffers of its own, so
		// their counts show whether the closed ring released it.
		big := core.PackBytes(p, b.wr.Pool, ringDoc(mem.ChunkSize+1))
		refused = big.Slices()
		rung.Prep(SQE{Op: OpIOLWrite, FD: b.wfd, Agg: big, User: "closed"})
		rung.Submit(p)
		for _, cqe := range append(cqes, rung.Reap(p, 1)...) {
			byUser[cqe.User.(string)] = cqe
		}
		b.m.Close(p, b.wr, b.wfd)
	})
	b.eng.Run()

	for _, want := range []struct {
		user string
		op   RingOp
		err  error
	}{
		{"ok", OpWritePOSIX, nil},
		{"badfd", OpIOLWrite, ErrBadFD},
		{"closed", OpIOLWrite, ErrClosed},
	} {
		cqe, ok := byUser[want.user]
		if !ok {
			t.Errorf("%s: no completion carried User %q", want.user, want.user)
			continue
		}
		if cqe.Op != want.op || !errors.Is(cqe.Err, want.err) {
			t.Errorf("%s: completion (%v, %v), want (%v, %v)", want.user, cqe.Op, cqe.Err, want.op, want.err)
		}
	}
	if len(byUser) != 3 {
		t.Errorf("reaped %d distinct completions, want 3", len(byUser))
	}
	if len(refused) < 2 {
		t.Fatalf("refused payload has %d buffers, want one per chunk", len(refused))
	}
	for _, s := range refused {
		if s.Buf.Refs() != 0 {
			t.Errorf("refused payload %v still holds %d refs", s.Buf, s.Buf.Refs())
		}
	}
}

// TestCloseBeforeReap: fds resolve at execution time, so an op whose fd is
// closed between Submit and execution completes with ErrBadFD instead of
// writing through a stale table entry.
func TestCloseBeforeReap(t *testing.T) {
	b := newRingBed(t, true)

	b.eng.Go("writer", func(p *sim.Proc) {
		rung := NewRingDesc(b.m, b.wr)
		rung.Prep(SQE{Op: OpIOLWrite, FD: b.wfd, Agg: core.PackBytes(p, b.wr.Pool, ringDoc(100))})
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
		if !errors.Is(cqes[0].Err, ErrBadFD) {
			t.Errorf("close-before-exec: err = %v, want ErrBadFD", cqes[0].Err)
		}
	})
	b.eng.Run()
}

// TestReadCoalescing: deliveries already queued when a ring read executes
// fold into one completion — the receive-side half of the economy.
func TestReadCoalescing(t *testing.T) {
	b := newRingBed(t, true)
	const chunks = 6
	chunk := ringDoc(1000)

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
		rung := NewRingDesc(b.m, b.rd)
		rung.Prep(SQE{Op: OpIOLRead, FD: b.rfd, N: MaxIO})
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
	m := NewMachine(eng, costs, Config{HostName: "server"})
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
		po := NewReadyDesc(m, pr)
		pr.Install(po)
		if err := po.Watch(lfd, Acceptable); err != nil {
			t.Fatalf("Add: %v", err)
		}
		evs := po.Wait(p)
		if len(evs) != 1 || evs[0].FD != lfd || evs[0].Ready&Acceptable == 0 {
			t.Fatalf("Wait = %+v, want one Acceptable event on %d", evs, lfd)
		}
		for {
			fd, err := m.Accept(p, pr, lfd)
			if errors.Is(err, ErrAgain) {
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

// TestSetNonblockListenerOnly pins O_NONBLOCK's scope: only a listener
// takes it. Sockets and pipes always block, so SetNonblock on either pipe
// end or on a connected socket reports ErrNotSupported, and still charges
// the one syscall the fcntl made.
func TestSetNonblockListenerOnly(t *testing.T) {
	eng := sim.New()
	costs := sim.DefaultCosts()
	m := NewMachine(eng, costs, Config{HostName: "server"})
	cm := NewMachine(eng, costs, Config{HostName: "client"})
	pr := m.NewProcess("srv", 1<<20)
	rfd, wfd := m.Pipe2(pr, pr, false)
	link := netsim.NewLink(eng, cm.Host, m.Host, 100_000_000, sim.Duration(1e6))
	_, sfd := SocketPair(cm, cm.NewProcess("cli", 1<<20), m, pr, link, netsim.ConnOpts{})

	eng.Go("srv", func(p *sim.Proc) {
		for _, tc := range []struct {
			name string
			fd   int
		}{{"pipe read end", rfd}, {"pipe write end", wfd}, {"socket", sfd}} {
			before := costs.MeterSyscallCount()
			if err := m.SetNonblock(p, pr, tc.fd, true); !errors.Is(err, ErrNotSupported) {
				t.Errorf("SetNonblock(%s) = %v, want ErrNotSupported", tc.name, err)
			}
			if n := costs.MeterSyscallCount() - before; n != 1 {
				t.Errorf("SetNonblock(%s) charged %d syscalls, want 1", tc.name, n)
			}
		}
	})
	eng.Run()
}

// TestRingAccept: accepts flow through the ring like any other op, each
// completion carrying the new connection's fd.
func TestRingAccept(t *testing.T) {
	const dials = 2
	eng := sim.New()
	costs := sim.DefaultCosts()
	m := NewMachine(eng, costs, Config{HostName: "server"})
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
		rung := NewRingDesc(m, pr)
		for i := 0; i < dials; i++ {
			rung.Prep(SQE{Op: OpAccept, FD: lfd})
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
			if d, err := pr.Desc(fd); err != nil {
				t.Errorf("fd %d: not open (%v)", fd, err)
			} else if _, ok := EndpointOf(d); !ok {
				t.Errorf("fd %d: not a socket", fd)
			}
		}
	})
	eng.Run()

	if len(fds) != dials {
		t.Errorf("ring accepted %d connections, want %d", len(fds), dials)
	}
}

// TestPollerRingNesting: a readiness descriptor watching a ring's fd sees
// it become readable when completions land — the wiring the httpd event
// loop runs on.
func TestPollerRingNesting(t *testing.T) {
	b := newRingBed(t, true)

	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.rd, b.rfd, MaxIO)
			if err != nil {
				return
			}
			a.Release()
		}
	})

	b.eng.Go("writer", func(p *sim.Proc) {
		rung := NewRingDesc(b.m, b.wr)
		ringFD := b.wr.Install(rung)
		po := NewReadyDesc(b.m, b.wr)
		b.wr.Install(po)
		if err := po.Watch(ringFD, Readable); err != nil {
			t.Fatalf("Add(ring): %v", err)
		}
		rung.Prep(SQE{Op: OpIOLWrite, FD: b.wfd, Agg: core.PackBytes(p, b.wr.Pool, ringDoc(100))})
		rung.Submit(p)
		evs := po.Wait(p)
		if len(evs) != 1 || evs[0].FD != ringFD {
			t.Fatalf("Wait = %+v, want ring fd readable", evs)
		}
		if cqes := rung.Reap(p, 1); len(cqes) != 1 || cqes[0].Err != nil {
			t.Fatalf("Reap after readiness: %+v", cqes)
		}
		b.m.Close(p, b.wr, b.wfd)
	})
	b.eng.Run()
}
