package kernel

import (
	"io"
	"testing"

	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/sim"
)

func TestOpenWithPoolReadUsesCallersPoolAndACL(t *testing.T) {
	e, m := newMachine(Config{})
	app := m.NewProcess("app", 1<<20)
	other := m.NewProcess("other", 1<<20)
	f := m.FS.Create("/doc", 100<<10)
	run(t, e, func(p *sim.Proc) {
		fd, err := m.OpenWithPool(p, app, "/doc", app.Pool)
		if err != nil {
			t.Errorf("OpenWithPool: %v", err)
			return
		}
		a, err := m.IOLRead(p, app, fd, f.Size())
		if err != nil {
			t.Errorf("IOLRead: %v", err)
			return
		}
		defer a.Release()
		if !a.Equal(m.FS.Expected(f, 0, f.Size())) {
			t.Fatal("pool read returned wrong bytes")
		}
		for _, s := range a.Slices() {
			if s.Buf.Pool() != app.Pool {
				t.Fatal("data not placed in the requested pool")
			}
		}
		// The data's ACL is the pool's: another process cannot read it and
		// it never entered the shared cache.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("foreign domain read pool-private data")
				}
			}()
			core.CheckReadable(a, other.Domain)
		}()
		if m.FileCache.Len() != 0 {
			t.Error("pool-directed read leaked into the shared file cache")
		}
	})
}

// TestCGIFaultIsolation models §3.10/§6.6's point: a malicious or buggy CGI
// process cannot corrupt data the server already holds, because all
// sharing is read-only — mutation attempts fault, and new content can only
// be chained in via fresh buffers.
func TestCGIFaultIsolation(t *testing.T) {
	e, m := newMachine(Config{})
	srv := m.NewProcess("srv", 1<<20)
	cgi := m.NewProcess("cgi", 1<<20)
	rfd, wfd := m.Pipe2(srv, cgi, ipcsim.ModeRef)
	var served []byte
	e.Go("cgi", func(p *sim.Proc) {
		doc := core.PackBytes(p, cgi.Pool, []byte("legitimate content"))
		if err := m.IOLWrite(p, cgi, wfd, doc.Clone()); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}

		// After handing the document to the server, the CGI process tries
		// to rewrite it in place — immutability must stop it.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("CGI mutated a shared buffer in place")
				}
			}()
			doc.Slices()[0].Buf.Write(0, []byte("EVIL"))
		}()
		doc.Release()
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
			served = append(served, a.Materialize()...)
			a.Release()
		}
	})
	e.Run()
	if string(served) != "legitimate content" {
		t.Fatalf("server saw %q", served)
	}
}

// TestWriteRequiresAccess: IOL_write with an aggregate the caller cannot
// read must fault rather than launder foreign data into a file.
func TestWriteRequiresAccess(t *testing.T) {
	e, m := newMachine(Config{})
	alice := m.NewProcess("alice", 1<<20)
	mallory := m.NewProcess("mallory", 1<<20)
	m.FS.Create("/secretcopy", 64)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, mallory, "/secretcopy")
		secret := core.PackBytes(p, alice.Pool, []byte("alice's private data"))
		defer secret.Release()
		defer func() {
			if recover() == nil {
				t.Error("mallory wrote data she cannot read")
			}
		}()
		m.IOLWrite(p, mallory, fd, secret)
	})
}
