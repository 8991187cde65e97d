package iolite

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"iolite/internal/core"
)

func TestSystemQuickstartFlow(t *testing.T) {
	sys := NewSystem(SystemConfig{ChecksumCache: true})
	f := sys.FS.Create("/doc", 50<<10)
	app := sys.NewProcess("app", 1<<20)
	want := sys.FS.Expected(f, 0, f.Size())

	sys.Run(func(p *Proc) {
		fd, err := sys.Open(p, app, "/doc")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		a, err := sys.IOLRead(p, app, fd, f.Size())
		if err != nil {
			t.Fatalf("IOLRead: %v", err)
		}
		if !bytes.Equal(a.Materialize(), want) {
			t.Error("IOLRead returned wrong bytes")
		}
		if _, err := sys.Seek(p, app, fd, 0, io.SeekStart); err != nil {
			t.Fatalf("Seek: %v", err)
		}
		b, err := sys.IOLRead(p, app, fd, f.Size())
		if err != nil {
			t.Fatalf("second IOLRead: %v", err)
		}
		if a.Slices()[0].Buf != b.Slices()[0].Buf {
			t.Error("cache hit did not share buffers")
		}
		hdr := core.PackBytes(p, app.Pool, []byte("hi:"))
		hdr.Concat(b)
		if got := hdr.Materialize(); string(got[:3]) != "hi:" {
			t.Error("aggregate composition broken")
		}
		a.Release()
		b.Release()
		hdr.Release()
		if err := sys.Close(p, app, fd); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := sys.IOLRead(p, app, fd, 1); !errors.Is(err, ErrBadFD) {
			t.Errorf("read after close: err = %v, want ErrBadFD", err)
		}
	})
}

func TestSystemOpenMissingFile(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	app := sys.NewProcess("app", 1<<20)
	sys.Run(func(p *Proc) {
		if _, err := sys.Open(p, app, "/nope"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Open missing: err = %v, want ErrNotExist", err)
		}
	})
}

func TestSystemPolicies(t *testing.T) {
	for _, pol := range []string{"", "unified", "LRU", "lru", "GDS", "gds"} {
		sys := NewSystem(SystemConfig{CachePolicy: pol})
		if sys.FileCache == nil {
			t.Fatalf("policy %q produced no cache", pol)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	NewSystem(SystemConfig{CachePolicy: "bogus"})
}

func TestSystemPipeProducersConsumers(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	prod := sys.NewProcess("prod", 1<<20)
	cons := sys.NewProcess("cons", 1<<20)
	rfd, wfd := sys.Pipe2(cons, prod, true)
	msg := []byte("through the reference pipe")
	var got []byte
	sys.Go("prod", func(p *Proc) {
		if err := sys.IOLWrite(p, prod, wfd, core.PackBytes(p, prod.Pool, msg)); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}
		sys.Close(p, prod, wfd)
	})
	sys.Go("cons", func(p *Proc) {
		for {
			a, err := sys.IOLRead(p, cons, rfd, 1<<20)
			if err != nil {
				return
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	sys.Eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestSystemMemoryConfig(t *testing.T) {
	sys := NewSystem(SystemConfig{MemBytes: 64 << 20})
	if got := sys.VM.TotalPages(); got != (64<<20)/4096 {
		t.Fatalf("TotalPages = %d", got)
	}
}

func TestSystemSpliceFileToPipe(t *testing.T) {
	// The public splice surface: file → ref-mode pipe in one syscall, plus
	// a sealed object behind an fd via NewAggDesc.
	sys := NewSystem(SystemConfig{})
	f := sys.FS.Create("/doc", 12<<10)
	app := sys.NewProcess("app", 1<<20)
	cons := sys.NewProcess("cons", 1<<20)
	rfd, wfd := sys.Pipe2(cons, app, true)
	want := sys.FS.Expected(f, 0, f.Size())
	var got []byte
	sys.Go("cons", func(p *Proc) {
		for {
			a, err := sys.IOLRead(p, cons, rfd, MaxIO)
			if err != nil {
				return
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	sys.Run(func(p *Proc) {
		fd, err := sys.Open(p, app, "/doc")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		moved, err := sys.SpliceAt(p, app, wfd, fd, 0, f.Size())
		if err != nil || moved != f.Size() {
			t.Fatalf("SpliceAt file: moved=%d err=%v", moved, err)
		}
		obj := core.PackBytes(p, app.Pool, []byte("sealed"))
		ofd := app.Install(sys.NewAggDesc(obj))
		if moved, err := sys.SpliceAt(p, app, wfd, ofd, 0, MaxIO); err != nil || moved != 6 {
			t.Fatalf("SpliceAt object: moved=%d err=%v", moved, err)
		}
		sys.Close(p, app, wfd)
		sys.Close(p, app, ofd)
	})
	if !bytes.Equal(got, append(want, []byte("sealed")...)) {
		t.Fatalf("spliced stream corrupted (%d bytes)", len(got))
	}
}
