package kernel

import (
	"bytes"
	"io"
	"testing"

	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

func newMachine(cfg Config) (*sim.Engine, *Machine) {
	e := sim.New()
	return e, NewMachine(e, sim.DefaultCosts(), cfg)
}

func run(t *testing.T, e *sim.Engine, body func(p *sim.Proc)) {
	t.Helper()
	e.Go("test", body)
	e.Run()
}

// The helpers below run inside simulated procs, which are goroutines of
// their own, so they report failures with t.Errorf and return a value the
// test can keep going with instead of calling t.Fatal.

// mustOpen opens name in pr's descriptor table (-1 on error).
func mustOpen(t *testing.T, p *sim.Proc, m *Machine, pr *Process, name string) int {
	t.Helper()
	fd, err := m.Open(p, pr, name)
	if err != nil {
		t.Errorf("Open %s: %v", name, err)
	}
	return fd
}

// readAt is IOL_read at an explicit offset (an empty aggregate on error).
func readAt(t *testing.T, p *sim.Proc, m *Machine, pr *Process, fd int, off, n int64) *core.Agg {
	t.Helper()
	a, err := m.IOLReadAt(p, pr, fd, off, n)
	if err != nil {
		t.Errorf("IOLReadAt(%d, %d): %v", off, n, err)
		return core.NewAgg()
	}
	return a
}

// seek moves fd's cursor to off.
func seek(t *testing.T, p *sim.Proc, m *Machine, pr *Process, fd int, off int64) {
	t.Helper()
	if _, err := m.Seek(p, pr, fd, off, io.SeekStart); err != nil {
		t.Errorf("Seek %d: %v", off, err)
	}
}

func TestIOLReadServesCachedSecondRead(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 100<<10)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, pr, "/doc")
		m.Disk.ResetStats() // Open's metadata read is not the data read under test
		t0 := p.Now()
		a1 := readAt(t, p, m, pr, fd, 0, f.Size())
		coldCost := p.Now().Sub(t0)
		want := m.FS.Expected(f, 0, f.Size())
		if !a1.Equal(want) {
			t.Fatal("IOLRead returned wrong data")
		}
		core.CheckReadable(a1, pr.Domain) // grants happened

		t1 := p.Now()
		a2 := readAt(t, p, m, pr, fd, 0, f.Size())
		hotCost := p.Now().Sub(t1)
		if !a2.Equal(want) {
			t.Fatal("second IOLRead wrong data")
		}
		if hotCost*10 >= coldCost {
			t.Errorf("cache hit cost %v vs miss %v; want ≫10x cheaper", hotCost, coldCost)
		}
		// Physical sharing: both reads reference the same buffers.
		if a1.Slices()[0].Buf != a2.Slices()[0].Buf {
			t.Error("cache hit did not share physical buffers")
		}
		a1.Release()
		a2.Release()
	})
	reads, _, _, _ := m.Disk.Stats()
	if reads != 1 {
		t.Fatalf("disk reads = %d, want 1 (the cold data read; the hit reads no disk)", reads)
	}
}

func TestIOLWriteReplacesAndPreservesSnapshot(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 8192)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, pr, "/doc")
		snap := readAt(t, p, m, pr, fd, 0, 8192)
		before := snap.Materialize()

		// Writer replaces the whole extent with new content (the cursor is
		// still at 0: IOLReadAt does not move it). IOL_write takes ownership.
		newData := bytes.Repeat([]byte{0xCD}, 8192)
		if err := m.IOLWrite(p, pr, fd, core.PackBytes(p, pr.Pool, newData)); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}

		// Snapshot semantics (§3.5).
		if !snap.Equal(before) {
			t.Error("reader snapshot disturbed by IOL_write")
		}
		// New readers see new data, from cache.
		a := readAt(t, p, m, pr, fd, 0, 8192)
		if !a.Equal(newData) {
			t.Error("IOLRead after write returned stale data")
		}
		a.Release()
		snap.Release()

		// The backing store was updated too.
		if !bytes.Equal(m.FS.Expected(f, 0, 8192), newData) {
			t.Error("file contents not persisted")
		}
	})
}

func TestPOSIXReadCopiesAndCosts(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 64<<10)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, pr, "/doc")
		dst := make([]byte, f.Size())
		m.ReadPOSIX(p, pr, fd, dst) // cold: disk + copy
		if !bytes.Equal(dst, m.FS.Expected(f, 0, f.Size())) {
			t.Fatal("read(2) returned wrong data")
		}

		// Warm read still pays the copy: that is the POSIX tax IOL_read
		// removes. The rewind is outside the timed window.
		seek(t, p, m, pr, fd, 0)
		t0 := p.Now()
		m.ReadPOSIX(p, pr, fd, dst)
		warmPOSIX := p.Now().Sub(t0)

		t1 := p.Now()
		a := readAt(t, p, m, pr, fd, 0, f.Size())
		warmIOL := p.Now().Sub(t1)
		a.Release()

		if warmPOSIX <= warmIOL+m.Costs.PriceCopy(int(f.Size()))/2 {
			t.Errorf("warm read(2)=%v, warm IOL_read=%v: copy tax missing", warmPOSIX, warmIOL)
		}
	})
}

func TestWritePOSIXRoundTrip(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 4096)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, pr, "/doc")
		data := bytes.Repeat([]byte{7}, 3000)
		seek(t, p, m, pr, fd, 500)
		m.WritePOSIX(p, pr, fd, data)
		dst := make([]byte, 3000)
		seek(t, p, m, pr, fd, 500)
		m.ReadPOSIX(p, pr, fd, dst)
		if !bytes.Equal(dst, data) {
			t.Fatal("write(2)/read(2) round trip failed")
		}
	})
}

func TestMmapResidencyAndPerDomainMapCost(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 256<<10)
	pr1 := m.NewProcess("srv", 1<<20)
	pr2 := m.NewProcess("other", 1<<20)
	run(t, e, func(p *sim.Proc) {
		t0 := p.Now()
		mp := m.Mmap(p, pr1, f)
		coldCost := p.Now().Sub(t0)
		if !bytes.Equal(mp.Bytes(0, f.Size()), m.FS.Expected(f, 0, f.Size())) {
			t.Fatal("mmap content wrong")
		}

		t1 := p.Now()
		m.Mmap(p, pr1, f) // same domain: resident and mapped
		warmSame := p.Now().Sub(t1)

		t2 := p.Now()
		m.Mmap(p, pr2, f) // new domain: map cost, no disk
		warmOther := p.Now().Sub(t2)

		if warmSame >= coldCost/10 {
			t.Errorf("resident remap cost %v vs cold %v", warmSame, coldCost)
		}
		if warmOther <= warmSame {
			t.Error("second domain skipped its page-map cost")
		}
		if m.Mmaps.Pages() != mem.PagesFor(256<<10) {
			t.Errorf("mmap pages = %d", m.Mmaps.Pages())
		}
	})
}

func TestMemoryPressureEvictsFileCache(t *testing.T) {
	// A machine with tiny memory: reading many files must evict older cache
	// entries rather than overcommit.
	e, m := newMachine(Config{MemBytes: 16 << 20, KernelReserveBytes: 4 << 20})
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			name := "/f" + string(rune('a'+i))
			f := m.FS.Create(name, 1<<20)
			fd := mustOpen(t, p, m, pr, name)
			readAt(t, p, m, pr, fd, 0, f.Size()).Release()
			m.Close(p, pr, fd)
		}
	})
	if m.VM.Overcommitted() != 0 {
		t.Fatalf("overcommit = %d pages", m.VM.Overcommitted())
	}
	_, evictions, _ := m.FileCache.EvictionStats()
	if evictions == 0 {
		t.Fatal("no evictions despite 40 MB of reads into ~11 MB of memory")
	}
	if m.VM.PressureRuns() == 0 {
		t.Fatal("pressure chain never ran")
	}
}

func TestMemoryPressureEvictsMmapCache(t *testing.T) {
	e, m := newMachine(Config{MemBytes: 16 << 20, KernelReserveBytes: 4 << 20})
	pr := m.NewProcess("srv", 1<<20)
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			f := m.FS.Create("/m"+string(rune('a'+i)), 1<<20)
			m.Mmap(p, pr, f)
		}
	})
	if m.VM.Overcommitted() != 0 {
		t.Fatalf("overcommit = %d pages", m.VM.Overcommitted())
	}
	if m.Mmaps.Pages() >= 40*mem.PagesFor(1<<20) {
		t.Fatal("mmap cache never shrank")
	}
}

func TestGDSPolicyPluggable(t *testing.T) {
	// IO-Lite's application-specific cache replacement (§3.7): a machine
	// built with GDS must prefer evicting large entries.
	e, m := newMachine(Config{Policy: cache.NewGDS()})
	pr := m.NewProcess("app", 1<<20)
	big := m.FS.Create("/big", 1<<20)
	small := m.FS.Create("/small", 4<<10)
	run(t, e, func(p *sim.Proc) {
		readAt(t, p, m, pr, mustOpen(t, p, m, pr, "/big"), 0, big.Size()).Release()
		readAt(t, p, m, pr, mustOpen(t, p, m, pr, "/small"), 0, small.Size()).Release()
		m.FileCache.EvictOne()
	})
	if m.FileCache.Contains(cache.Key{File: small.ID, Off: 0, Len: small.Size()}) == false {
		t.Fatal("GDS evicted the small entry first")
	}
	if m.FileCache.Contains(cache.Key{File: big.ID, Off: 0, Len: big.Size()}) {
		t.Fatal("GDS kept the big entry")
	}
}

func TestProcessPoolACLIsolation(t *testing.T) {
	// §3.10: separate pools per process; data packed into one process's
	// pool is unreadable elsewhere until transferred.
	e, m := newMachine(Config{})
	cgi := m.NewProcess("cgi", 1<<20)
	srv := m.NewProcess("srv", 1<<20)
	run(t, e, func(p *sim.Proc) {
		a := core.PackBytes(p, cgi.Pool, []byte("dynamic content"))
		func() {
			defer func() {
				if recover() == nil {
					t.Error("server read CGI data without a transfer")
				}
			}()
			core.CheckReadable(a, srv.Domain)
		}()
		core.Transfer(p, a, srv.Domain)
		core.CheckReadable(a, srv.Domain)
		a.Release()
	})
}

func TestRefPipeBetweenProcesses(t *testing.T) {
	e, m := newMachine(Config{})
	cgi := m.NewProcess("cgi", 1<<20)
	srv := m.NewProcess("srv", 1<<20)
	rfd, wfd := m.Pipe2(srv, cgi, ipcsim.ModeRef)
	var got []byte
	e.Go("cgi", func(p *sim.Proc) {
		if err := m.IOLWrite(p, cgi, wfd, core.PackBytes(p, cgi.Pool, []byte("hello over fbuf pipe"))); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}
		m.Close(p, cgi, wfd)
	})
	e.Go("srv", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, srv, rfd, MaxIO)
			if err != nil {
				if err != io.EOF {
					t.Errorf("IOLRead: %v", err)
				}
				return
			}
			core.CheckReadable(a, srv.Domain)
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	e.Run()
	if string(got) != "hello over fbuf pipe" {
		t.Fatalf("got %q", got)
	}
}

func TestProcessExitReleasesMemory(t *testing.T) {
	e, m := newMachine(Config{})
	before := m.VM.UsedBy(mem.TagProc)
	pr := m.NewProcess("tmp", 2<<20)
	if m.VM.UsedBy(mem.TagProc) != before+mem.PagesFor(2<<20) {
		t.Fatal("process memory not reserved")
	}
	pr.Exit()
	if m.VM.UsedBy(mem.TagProc) != before {
		t.Fatal("process memory not released")
	}
	_ = e
}

func TestIOLReadBeyondEOFTruncates(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/short", 1000)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, pr, "/short")
		a := readAt(t, p, m, pr, fd, 500, 10000)
		if a.Len() != 500 {
			t.Fatalf("Len = %d, want 500 (IOL_read may return less than asked)", a.Len())
		}
		a.Release()
		if empty, err := m.IOLReadAt(p, pr, fd, 1000, 10); err != io.EOF {
			t.Errorf("read past EOF = %v, %v; want no data and io.EOF", empty, err)
		}
	})
}
