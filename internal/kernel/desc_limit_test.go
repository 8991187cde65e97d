package kernel

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

func limitDoc(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*3 + 11)
	}
	return d
}

// TestLimitDescPacesWrites pins the rate contract: writing total bytes
// through a limiter at rate r with burst b takes at least (total-b)/r of
// simulated time, and the data is untouched.
func TestLimitDescPacesWrites(t *testing.T) {
	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{})
	wr := m.NewProcess("writer", 1<<20)
	rd := m.NewProcess("reader", 1<<20)
	rfd, wfd := m.Pipe2(rd, wr, true)

	inner, err := wr.Desc(wfd)
	if err != nil {
		t.Fatalf("Desc: %v", err)
	}
	const rate, burst = 1 << 20, 64 << 10 // 1 MB/s, 64 KB burst
	lfd := wr.Install(NewLimitDesc(m, inner, LimitConfig{BytesPerSec: rate, Burst: burst}))

	data := limitDoc(320 << 10)
	var wrote sim.Time
	eng.Go("writer", func(p *sim.Proc) {
		for off := 0; off < len(data); off += 16 << 10 {
			a := core.PackBytes(p, wr.Pool, data[off:off+16<<10])
			if err := m.IOLWrite(p, wr, lfd, a); err != nil {
				t.Errorf("IOLWrite: %v", err)
				return
			}
		}
		wrote = p.Now()
		m.Close(p, wr, lfd)
	})
	var got []byte
	eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, rd, rfd, MaxIO)
			if err != nil {
				return
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	eng.Run()

	if !bytes.Equal(got, data) {
		t.Fatalf("limited pipe corrupted: got %d bytes, want %d", len(got), len(data))
	}
	// The bucket starts full: the first `burst` bytes are free, the rest
	// wait for refill.
	minWait := sim.Duration(int64(len(data)-burst) * int64(time.Second) / rate)
	if got := sim.Duration(wrote); got < minWait {
		t.Fatalf("writes finished in %v, rate demands ≥ %v", got, minWait)
	}
	if got := sim.Duration(wrote); got > minWait+minWait/4 {
		t.Fatalf("writes took %v, far over the %v the rate demands — limiter over-throttling", got, minWait)
	}
}

// TestLimitDescSharedBucket pins the per-tenant shape: two descriptors
// drawing from one shared bucket are jointly bounded by the single rate.
func TestLimitDescSharedBucket(t *testing.T) {
	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{})
	wr := m.NewProcess("writer", 1<<20)
	rd := m.NewProcess("reader", 1<<20)

	const rate, burst = 1 << 20, 32 << 10
	shared := NewTokenBucket(eng, rate, burst)
	var rfds []int
	wrap := func() int {
		rfd, wfd := m.Pipe2(rd, wr, true)
		rfds = append(rfds, rfd)
		inner, err := wr.Desc(wfd)
		if err != nil {
			t.Fatalf("Desc: %v", err)
		}
		return wr.Install(NewLimitDesc(m, inner, LimitConfig{Bucket: shared}))
	}
	fds := []int{wrap(), wrap()}
	for i, rfd := range rfds {
		rfd := rfd
		eng.Go([]string{"ra", "rb"}[i], func(p *sim.Proc) {
			for {
				a, err := m.IOLRead(p, rd, rfd, MaxIO)
				if err != nil {
					return
				}
				a.Release()
			}
		})
	}

	const each = 128 << 10
	var finished sim.Time
	done := 0
	for i, fd := range fds {
		fd := fd
		eng.Go([]string{"wa", "wb"}[i], func(p *sim.Proc) {
			for off := 0; off < each; off += 8 << 10 {
				a := core.PackBytes(p, wr.Pool, limitDoc(8<<10))
				if err := m.IOLWrite(p, wr, fd, a); err != nil {
					t.Errorf("IOLWrite: %v", err)
					return
				}
			}
			if done++; done == 2 {
				finished = p.Now()
				m.Close(p, wr, fds[0])
				m.Close(p, wr, fds[1])
			}
		})
	}
	eng.Run()

	minWait := sim.Duration(int64(2*each-burst) * int64(time.Second) / rate)
	if got := sim.Duration(finished); got < minWait {
		t.Fatalf("two shared-bucket writers finished in %v, joint rate demands ≥ %v", got, minWait)
	}
}

// TestLimitDescSpliceCompose pins splice-path composition: a limiter
// around a ref-pipe write end still advertises SpliceIn, Machine.Splice
// moves a file through it by reference, and the spliced bytes are paced
// by the bucket like any write.
func TestLimitDescSpliceCompose(t *testing.T) {
	const size = int64(256 << 10)
	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{})
	doc := m.FS.Create("/doc", size)
	pr := m.NewProcess("srv", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, wfd := m.Pipe2(cons, pr, true)

	inner, err := pr.Desc(wfd)
	if err != nil {
		t.Fatalf("Desc: %v", err)
	}
	const rate, burst = 2 << 20, 64 << 10
	lfd := pr.Install(NewLimitDesc(m, inner, LimitConfig{BytesPerSec: rate, Burst: burst}))

	var want []byte
	var spliced sim.Time
	eng.Go("srv", func(p *sim.Proc) {
		ffd, err := m.Open(p, pr, "/doc")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		want = m.FS.Expected(doc, 0, size)
		// Sub-burst chunks: a single op larger than the bucket capacity
		// charges the excess as debt (it cannot park forever on an
		// unpayable demand), so chunked splices are what pacing bounds.
		const chunk = int64(32 << 10)
		for off := int64(0); off < size; off += chunk {
			if moved, err := m.SpliceAt(p, pr, lfd, ffd, off, chunk); err != nil || moved != chunk {
				t.Errorf("SpliceAt through limiter: moved=%d err=%v", moved, err)
				return
			}
		}
		spliced = p.Now()
		m.Close(p, pr, lfd)
	})
	var got []byte
	eng.Go("cons", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, cons, rfd, MaxIO)
			if err != nil {
				return
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	eng.Run()

	if !bytes.Equal(got, want) {
		t.Fatalf("splice through limiter corrupted: got %d bytes, want %d", len(got), len(want))
	}
	minWait := sim.Duration((size - burst) * int64(time.Second) / rate)
	if got := sim.Duration(spliced); got < minWait {
		t.Fatalf("splice finished in %v, rate demands ≥ %v", got, minWait)
	}
}

// TestLimitDescNonblockReadiness pins the readiness-loop composition:
// under O_NONBLOCK an insolvent bucket turns writes into ErrAgain and
// masks PollReady to 0, and the registered poll notify fires when the
// refill makes the descriptor ready again — the contract a ring loop
// needs to pace itself to the configured rate without parking.
func TestLimitDescNonblockReadiness(t *testing.T) {
	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{})
	wr := m.NewProcess("writer", 1<<20)
	rd := m.NewProcess("reader", 1<<20)
	rfd, wfd := m.Pipe2(rd, wr, true)

	inner, err := wr.Desc(wfd)
	if err != nil {
		t.Fatalf("Desc: %v", err)
	}
	const rate, burst = 1 << 20, 16 << 10
	ld := NewLimitDesc(m, inner, LimitConfig{BytesPerSec: rate, Burst: burst})
	lfd := wr.Install(ld)

	notified := false
	eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, rd, rfd, MaxIO)
			if err != nil {
				return
			}
			a.Release()
		}
	})
	eng.Go("writer", func(p *sim.Proc) {
		if err := m.SetNonblock(p, wr, lfd, true); err != nil {
			t.Errorf("SetNonblock through limiter: %v", err)
			return
		}
		// An oversize write is admitted while the bucket is solvent and
		// leaves it in debt (nonblocking ops never park)...
		a := core.PackBytes(p, wr.Pool, limitDoc(burst+4096))
		if err := m.IOLWrite(p, wr, lfd, a); err != nil {
			t.Errorf("burst write: %v", err)
			return
		}
		// ...and the next write finds the debt: ErrAgain, not a park.
		// Packing and the syscall charge CPU time; the refusal itself must
		// not wait out the refill (which needs milliseconds at this rate).
		before := p.Now()
		a = core.PackBytes(p, wr.Pool, limitDoc(1024))
		if err := m.IOLWrite(p, wr, lfd, a); err != ErrAgain {
			t.Errorf("dry write got %v, want ErrAgain", err)
			return
		}
		a.Release() // on error the caller still owns it
		if el := p.Now().Sub(before); el > 100*sim.Microsecond {
			t.Errorf("nonblocking refusal took %v — it parked on the bucket", el)
		}
		if r := ld.PollReady(); r != 0 {
			t.Errorf("insolvent PollReady = %v, want 0", r)
		}
		ld.SetPollNotify(func() { notified = true })
		p.Sleep(5 * sim.Millisecond) // refill window
		if !notified {
			t.Error("poll notify never fired after refill")
		}
		if r := ld.PollReady(); r == 0 {
			t.Error("solvent PollReady still 0")
		}
		a = core.PackBytes(p, wr.Pool, limitDoc(1024))
		if err := m.IOLWrite(p, wr, lfd, a); err != nil {
			t.Errorf("post-refill write: %v", err)
			return
		}
		m.Close(p, wr, lfd)
	})
	eng.Run()
}

// TestLimitDescCorkNoWedge is the composition edge the ISSUE names: a
// rate-limited socket under an explicit cork whose payload overflows a
// sub-MSS send window. The limiter forwards the corker capability, the
// cork's buffer-pressure escape still fires through the wrapper, and the
// transfer completes instead of wedging.
func TestLimitDescCorkNoWedge(t *testing.T) {
	eng := sim.New()
	costs := sim.DefaultCosts()
	server := NewMachine(eng, costs, Config{})
	client := NewMachine(eng, costs, Config{})
	link := netsim.NewLink(eng, client.Host, server.Host, 100_000_000, sim.Millisecond)
	srvPr := server.NewProcess("srv", 1<<20)
	cliPr := client.NewProcess("cli", 1<<20)
	lst := netsim.NewListener(server.Host)
	lfd := server.Listen(srvPr, lst)

	want := limitDoc(4 << 10)
	eng.Go("srv", func(p *sim.Proc) {
		cfd, err := server.Accept(p, srvPr, lfd)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		inner, err := srvPr.Desc(cfd)
		if err != nil {
			t.Errorf("Desc: %v", err)
			return
		}
		limfd := srvPr.Install(NewLimitDesc(server, inner, LimitConfig{
			BytesPerSec: 1 << 20, Burst: 2 << 10, // tighter than the payload: pacing active
		}))
		if err := server.SetCork(p, srvPr, limfd, true); err != nil {
			t.Errorf("SetCork through limiter: %v", err)
			return
		}
		a := core.PackBytes(p, srvPr.Pool, want)
		if err := server.IOLWrite(p, srvPr, limfd, a); err != nil {
			t.Errorf("corked limited write: %v", err)
			return
		}
		if err := server.SetCork(p, srvPr, limfd, false); err != nil {
			t.Errorf("uncork: %v", err)
		}
		server.Close(p, srvPr, limfd)
	})
	var got []byte
	eng.Go("cli", func(p *sim.Proc) {
		// A 1 KB window — smaller than one MSS — so the corked sender
		// can only ever trickle and must rely on the escape.
		cfd, err := client.Connect(p, cliPr, link, lst, netsim.ConnOpts{Tss: 1024})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for {
			a, err := client.IOLRead(p, cliPr, cfd, MaxIO)
			if err != nil {
				break
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
		client.Close(p, cliPr, cfd)
	})
	eng.Run()

	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want %d (corked limited sender wedged)", len(got), len(want))
	}
}
