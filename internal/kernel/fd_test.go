package kernel

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// Tests of the descriptor layer: the single IOL_read/IOL_write (and POSIX
// read/write) surface over files, pipes, and sockets, with error returns
// instead of panics.

func TestBadFDErrors(t *testing.T) {
	e, m := newMachine(Config{})
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		if _, err := m.IOLRead(p, pr, 7, 100); !errors.Is(err, ErrBadFD) {
			t.Errorf("IOLRead bad fd: %v", err)
		}
		if err := m.IOLWrite(p, pr, 7, core.NewAgg()); !errors.Is(err, ErrBadFD) {
			t.Errorf("IOLWrite bad fd: %v", err)
		}
		if _, err := m.ReadPOSIX(p, pr, -1, make([]byte, 8)); !errors.Is(err, ErrBadFD) {
			t.Errorf("ReadPOSIX bad fd: %v", err)
		}
		if _, err := m.WritePOSIX(p, pr, 3, []byte("x")); !errors.Is(err, ErrBadFD) {
			t.Errorf("WritePOSIX bad fd: %v", err)
		}
		if err := m.Close(p, pr, 0); !errors.Is(err, ErrBadFD) {
			t.Errorf("Close bad fd: %v", err)
		}
		if _, err := m.Seek(p, pr, 0, 0, io.SeekStart); !errors.Is(err, ErrBadFD) {
			t.Errorf("Seek bad fd: %v", err)
		}
		if _, err := m.Open(p, pr, "/missing"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Open missing: %v", err)
		}
	})
}

func TestFileFDSequentialReadAndSeek(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 40<<10)
	pr := m.NewProcess("app", 1<<20)
	want := m.FS.Expected(f, 0, f.Size())
	run(t, e, func(p *sim.Proc) {
		fd, err := m.Open(p, pr, "/doc")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// Sequential chunked reads walk the cursor to EOF.
		var got []byte
		for {
			a, err := m.IOLRead(p, pr, fd, 16<<10)
			if err != nil {
				if err != io.EOF {
					t.Fatalf("IOLRead: %v", err)
				}
				break
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
		if !bytes.Equal(got, want) {
			t.Fatal("sequential FD reads returned wrong bytes")
		}
		// Rewind and POSIX-read the same content.
		if _, err := m.Seek(p, pr, fd, 0, io.SeekStart); err != nil {
			t.Fatalf("Seek: %v", err)
		}
		buf := make([]byte, f.Size())
		n, err := m.ReadPOSIX(p, pr, fd, buf)
		if err != nil || int64(n) != f.Size() {
			t.Fatalf("ReadPOSIX after Seek: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatal("POSIX FD read returned wrong bytes")
		}
		if _, err := m.ReadPOSIX(p, pr, fd, buf); err != io.EOF {
			t.Fatalf("read at EOF: %v, want io.EOF", err)
		}
		// SeekEnd and SeekCurrent arithmetic.
		if off, err := m.Seek(p, pr, fd, -1024, io.SeekEnd); err != nil || off != f.Size()-1024 {
			t.Fatalf("SeekEnd: off=%d err=%v", off, err)
		}
		if off, err := m.Seek(p, pr, fd, 24, io.SeekCurrent); err != nil || off != f.Size()-1000 {
			t.Fatalf("SeekCurrent: off=%d err=%v", off, err)
		}
		m.Close(p, pr, fd)
	})
}

func TestFDReadAfterClose(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 4096)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd, _ := m.Open(p, pr, "/doc")
		if err := m.Close(p, pr, fd); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := m.IOLRead(p, pr, fd, 100); !errors.Is(err, ErrBadFD) {
			t.Errorf("read after close: %v, want ErrBadFD", err)
		}
		if err := m.Close(p, pr, fd); !errors.Is(err, ErrBadFD) {
			t.Errorf("double close: %v, want ErrBadFD", err)
		}
	})
}

// TestLowestFreeFD: after any mix of opens and closes, Open (through
// Install) hands out the lowest fd not open, as POSIX requires.
func TestLowestFreeFD(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 100)
	pr := m.NewProcess("app", 1<<20)
	rng := rand.New(rand.NewSource(1))
	run(t, e, func(p *sim.Proc) {
		open := map[int]bool{}
		lowest := func() int {
			fd := 0
			for open[fd] {
				fd++
			}
			return fd
		}
		for step := 0; step < 2000; step++ {
			var fds []int
			for fd := range open {
				fds = append(fds, fd)
			}
			slices.Sort(fds)
			switch op := rng.Intn(3); {
			case op == 0 && len(fds) > 0:
				fd := fds[rng.Intn(len(fds))]
				if err := m.Close(p, pr, fd); err != nil {
					t.Fatalf("step %d: Close(%d): %v", step, fd, err)
				}
				delete(open, fd)
			default:
				want := lowest()
				got, err := m.Open(p, pr, "/doc")
				if err != nil || got != want {
					t.Fatalf("step %d: Open = %d, %v; want fd %d", step, got, err, want)
				}
				open[got] = true
			}
			if n := numFDs(pr); n != len(open) {
				t.Fatalf("step %d: %d fds open, want %d", step, n, len(open))
			}
		}
	})
}

func TestPipeFDEOFOnDrainAndWriteAfterClose(t *testing.T) {
	e, m := newMachine(Config{})
	prod := m.NewProcess("prod", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, wfd := m.Pipe2(cons, prod, true)
	msgs := [][]byte{[]byte("first message"), []byte("second message")}
	e.Go("prod", func(p *sim.Proc) {
		for _, msg := range msgs {
			if err := m.IOLWrite(p, prod, wfd, core.PackBytes(p, prod.Pool, msg)); err != nil {
				t.Errorf("IOLWrite: %v", err)
			}
		}
		m.Close(p, prod, wfd)
		// The write end is gone from the table entirely.
		if err := m.IOLWrite(p, prod, wfd, core.NewAgg()); !errors.Is(err, ErrBadFD) {
			t.Errorf("write after close: %v, want ErrBadFD", err)
		}
	})
	e.Go("cons", func(p *sim.Proc) {
		var got []byte
		for {
			a, err := m.IOLRead(p, cons, rfd, 1<<20)
			if err != nil {
				if err != io.EOF {
					t.Errorf("IOLRead: %v", err)
				}
				break
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
		if string(got) != "first messagesecond message" {
			t.Errorf("pipe content = %q", got)
		}
		// Drained pipe keeps reporting EOF.
		if _, err := m.IOLRead(p, cons, rfd, 1); err != io.EOF {
			t.Errorf("second EOF read: %v", err)
		}
		m.Close(p, cons, rfd)
	})
	e.Run()
}

func TestPipeFDReadEndCloseUnblocksWriter(t *testing.T) {
	// Closing the read-end descriptor must wake a writer blocked on a full
	// pipe (no simulation deadlock) and fail its later writes with
	// ErrClosed — the simulated EPIPE.
	e, m := newMachine(Config{})
	prod := m.NewProcess("prod", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, wfd := m.Pipe2(cons, prod, false)
	big := make([]byte, pipeCap*2) // twice the pipe capacity: blocks
	wrote := false
	e.Go("prod", func(p *sim.Proc) {
		m.WritePOSIX(p, prod, wfd, big) // blocks until the reader closes
		wrote = true
		if _, err := m.WritePOSIX(p, prod, wfd, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("write after reader close: %v, want ErrClosed", err)
		}
	})
	e.Go("cons", func(p *sim.Proc) {
		buf := make([]byte, 1024)
		m.ReadPOSIX(p, cons, rfd, buf) // drain a little, then walk away
		m.Close(p, cons, rfd)
	})
	e.Run() // deadlock here would hang the test
	if !wrote {
		t.Fatal("writer never unblocked after reader close")
	}
	// The reader walked away mid-stream: closing its end must return the
	// kernel buffer pages the discarded data occupied.
	if n := m.VM.UsedBy(mem.TagSockBuf); n != 0 {
		t.Errorf("%d kernel pipe buffer pages still held after the reader closed", n)
	}
}

func TestFileFDPositionalRead(t *testing.T) {
	// IOLReadAt does not touch the cursor, so one descriptor can serve
	// overlapping reads (the web server's shared open-FD cache pattern).
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 16<<10)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd, _ := m.Open(p, pr, "/doc")
		a, err := m.IOLReadAt(p, pr, fd, 4096, 4096)
		if err != nil {
			t.Fatalf("IOLReadAt: %v", err)
		}
		if !a.Equal(m.FS.Expected(f, 4096, 4096)) {
			t.Fatal("positional read returned wrong bytes")
		}
		a.Release()
		if off, _ := m.Seek(p, pr, fd, 0, io.SeekCurrent); off != 0 {
			t.Fatalf("IOLReadAt moved the cursor to %d", off)
		}
		if _, err := m.IOLReadAt(p, pr, fd, f.Size(), 1); err != io.EOF {
			t.Fatalf("IOLReadAt past EOF: %v, want io.EOF", err)
		}
		// Streams don't implement the capability.
		rfd, _ := m.Pipe2(pr, pr, true)
		if _, err := m.IOLReadAt(p, pr, rfd, 0, 1); !errors.Is(err, ErrNotSupported) {
			t.Fatalf("IOLReadAt on pipe: %v, want ErrNotSupported", err)
		}
		m.Close(p, pr, fd)
	})
}

func TestPipeFDPosixOverRefPipe(t *testing.T) {
	// POSIX read/write on a reference-mode pipe: the adaptation packs and
	// copies at the boundary, and a short read leaves the tail pending.
	e, m := newMachine(Config{})
	prod := m.NewProcess("prod", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, wfd := m.Pipe2(cons, prod, true)
	payload := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KB
	e.Go("prod", func(p *sim.Proc) {
		if _, err := m.WritePOSIX(p, prod, wfd, payload); err != nil {
			t.Errorf("WritePOSIX over ref pipe: %v", err)
		}
		m.Close(p, prod, wfd)
	})
	e.Go("cons", func(p *sim.Proc) {
		var got []byte
		buf := make([]byte, 1000) // forces pending-tail handling
		for {
			n, err := m.ReadPOSIX(p, cons, rfd, buf)
			if err != nil {
				if err != io.EOF {
					t.Errorf("ReadPOSIX: %v", err)
				}
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("posix-over-ref round trip corrupted (%d bytes)", len(got))
		}
	})
	e.Run()
}

// twoMachines wires a client machine to a server machine over one link.
func twoMachines(t *testing.T) (*sim.Engine, *Machine, *Machine, *netsim.Link) {
	t.Helper()
	e := sim.New()
	costs := sim.DefaultCosts()
	server := NewMachine(e, costs, Config{})
	client := NewMachine(e, costs, Config{})
	link := netsim.NewLink(e, client.Host, server.Host, 100_000_000, 100*time.Microsecond)
	return e, server, client, link
}

func TestSocketFDZeroCopyReceive(t *testing.T) {
	// The acceptance path: an IOL_write on the sender's socket descriptor
	// arrives at the receiver's IOL_read as a real *core.Agg referencing
	// the *same immutable buffers* — proof that no data copy happened
	// anywhere on the path (§3.6 early demultiplexing + §4.1 out-of-line
	// mbufs).
	e, server, client, link := twoMachines(t)
	lst := netsim.NewListener(server.Host)
	srvPr := server.NewProcess("srv", 1<<20)
	cliPr := client.NewProcess("cli", 1<<20)
	lfd := server.Listen(srvPr, lst)

	payload := []byte("zero copy all the way down") // < MSS: one segment
	var sentBuf *core.Buffer

	e.Go("srv", func(p *sim.Proc) {
		cfd, err := server.Accept(p, srvPr, lfd)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		agg := core.PackBytes(p, srvPr.Pool, payload)
		sentBuf = agg.Slices()[0].Buf
		if err := server.IOLWrite(p, srvPr, cfd, agg); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}
		server.Close(p, srvPr, cfd)
	})
	e.Go("cli", func(p *sim.Proc) {
		cfd, err := client.Connect(p, cliPr, link, lst, netsim.ConnOpts{ServerRefMode: true})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		a, err := client.IOLRead(p, cliPr, cfd, 1<<20)
		if err != nil {
			t.Errorf("IOLRead: %v", err)
			return
		}
		if !a.Equal(payload) {
			t.Error("received wrong bytes")
		}
		if a.Slices()[0].Buf != sentBuf {
			t.Error("receive did not share the sender's buffer: a copy happened")
		}
		// The transfer granted this process read access to the buffers.
		core.CheckReadable(a, cliPr.Domain)
		a.Release()
		if _, err := client.IOLRead(p, cliPr, cfd, 1); err != io.EOF {
			t.Errorf("read after sender FIN: %v, want io.EOF", err)
		}
		client.Close(p, cliPr, cfd)
	})
	e.Run()
}

func TestSocketFDWriteAfterClose(t *testing.T) {
	e, server, client, link := twoMachines(t)
	lst := netsim.NewListener(server.Host)
	srvPr := server.NewProcess("srv", 1<<20)
	cliPr := client.NewProcess("cli", 1<<20)
	lfd := server.Listen(srvPr, lst)

	e.Go("srv", func(p *sim.Proc) {
		cfd, err := server.Accept(p, srvPr, lfd)
		if err != nil {
			return
		}
		server.Close(p, srvPr, cfd) // FIN goes out here
	})
	e.Go("cli", func(p *sim.Proc) {
		cfd, _ := client.Connect(p, cliPr, link, lst, netsim.ConnOpts{})
		// Drain to FIN.
		for {
			if _, err := client.IOLRead(p, cliPr, cfd, 1<<20); err != nil {
				break
			}
		}
		d, _ := cliPr.Desc(cfd)
		client.Close(p, cliPr, cfd)
		// The endpoint is now closing: a fresh descriptor for it would
		// refuse writes with ErrClosed. Reinstall to verify the check.
		nfd := cliPr.Install(&sockDesc{m: client, ep: epOf(t, d)})
		if _, err := client.WritePOSIX(p, cliPr, nfd, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("write on closing endpoint: %v, want ErrClosed", err)
		}
	})
	e.Run()
}

func epOf(t *testing.T, d Desc) *netsim.Endpoint {
	t.Helper()
	ep, ok := EndpointOf(d)
	if !ok {
		t.Fatal("not a socket descriptor")
	}
	return ep
}

func TestListenerFDRejectsDataOps(t *testing.T) {
	e, m := newMachine(Config{})
	pr := m.NewProcess("srv", 1<<20)
	lst := netsim.NewListener(m.Host)
	lfd := m.Listen(pr, lst)
	run(t, e, func(p *sim.Proc) {
		if _, err := m.IOLRead(p, pr, lfd, 10); !errors.Is(err, ErrNotSupported) {
			t.Errorf("IOLRead on listener: %v", err)
		}
		if _, err := m.WritePOSIX(p, pr, lfd, []byte("x")); !errors.Is(err, ErrNotSupported) {
			t.Errorf("WritePOSIX on listener: %v", err)
		}
		lst.Close()
		if _, err := m.Accept(p, pr, lfd); !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close: %v, want ErrClosed", err)
		}
	})
}

func TestDescCapabilityQueries(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 4096)
	prod := m.NewProcess("prod", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, _ := m.Pipe2(cons, prod, false)
	m.Pipe2(cons, prod, true)
	run(t, e, func(p *sim.Proc) {
		ffd, _ := m.Open(p, cons, "/doc")
		filed, _ := cons.Desc(ffd)
		if _, ok := filed.(Seeker); !ok {
			t.Error("file descriptor is not a Seeker")
		}
		cd, _ := cons.Desc(rfd)
		if _, ok := cd.(Seeker); ok {
			t.Error("copy pipe is a Seeker")
		}
		if _, err := m.Seek(p, cons, rfd, 0, io.SeekStart); !errors.Is(err, ErrNotSupported) {
			t.Errorf("Seek on pipe: %v", err)
		}
		if n := numFDs(cons); n != 3 {
			t.Errorf("%d fds open, want 3", n)
		}
	})
}

// numFDs counts the descriptors open in pr's table.
func numFDs(pr *Process) int {
	n := 0
	for _, d := range pr.fds {
		if d != nil {
			n++
		}
	}
	return n
}
