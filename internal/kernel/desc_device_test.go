package kernel

import (
	"errors"
	"io"
	"testing"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// Tests for the virtual device descriptors (ROADMAP: new descriptor kinds
// via Process.Install): the /dev/null sink and the tee duplicator.

func deviceBed() (*sim.Engine, *Machine, *Process, *Process) {
	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{})
	a := m.NewProcess("a", 1<<20)
	b := m.NewProcess("b", 1<<20)
	return eng, m, a, b
}

func TestNullDescDiscardsWithoutCopyCharge(t *testing.T) {
	eng, m, a, _ := deviceBed()
	null := NewNullDesc(m)
	fd := a.Install(null)

	eng.Go("writer", func(p *sim.Proc) {
		agg := core.PackBytes(p, a.Pool, make([]byte, 10000))
		m.Costs.ResetMeters()
		if err := m.IOLWrite(p, a, fd, agg); err != nil {
			t.Errorf("IOLWrite to null: %v", err)
		}
		if got := m.Costs.MeterCopiedBytes(); got != 0 {
			t.Errorf("IOL_write to /dev/null charged %d copied bytes, want 0", got)
		}
		if _, err := m.IOLRead(p, a, fd, MaxIO); !errors.Is(err, io.EOF) {
			t.Errorf("IOLRead from null = %v, want EOF", err)
		}
		if _, err := m.WritePOSIX(p, a, fd, make([]byte, 500)); err != nil {
			t.Errorf("WritePOSIX to null: %v", err)
		}
		m.Close(p, a, fd)
	})
	eng.Run()

	if null.Discarded() != 10500 {
		t.Errorf("null discarded %d bytes, want 10500", null.Discarded())
	}
	if null.Writes() != 2 {
		t.Errorf("null absorbed %d writes, want 2", null.Writes())
	}
}

func TestTeeDescDuplicatesRefWritesZeroCopy(t *testing.T) {
	eng, m, a, b := deviceBed()
	rfd, wfd := m.Pipe2(a, b, true)
	wdesc, err := b.Desc(wfd)
	if err != nil {
		t.Fatalf("Desc(wfd): %v", err)
	}
	null := NewNullDesc(m)
	tfd := b.Install(NewTeeDesc(m, wdesc, null))

	data := []byte("tee duplicates by reference")
	eng.Go("writer", func(p *sim.Proc) {
		agg := core.PackBytes(p, b.Pool, data)
		m.Costs.ResetMeters()
		if err := m.IOLWrite(p, b, tfd, agg); err != nil {
			t.Errorf("IOLWrite via tee: %v", err)
		}
		if got := m.Costs.MeterCopiedBytes(); got != 0 {
			t.Errorf("tee IOL_write charged %d copied bytes, want 0 (clone is by reference)", got)
		}
	})
	var got []byte
	eng.Go("reader", func(p *sim.Proc) {
		agg, err := m.IOLRead(p, a, rfd, MaxIO)
		if err != nil {
			t.Errorf("IOLRead: %v", err)
			return
		}
		got = agg.Materialize()
		agg.Release()
	})
	eng.Run()

	if string(got) != string(data) {
		t.Errorf("primary stream got %q, want %q", got, data)
	}
	if null.Discarded() != int64(len(data)) {
		t.Errorf("observer saw %d bytes, want %d", null.Discarded(), len(data))
	}
}

func TestTeeDescRejectsReads(t *testing.T) {
	eng, m, a, b := deviceBed()
	_, wfd := m.Pipe2(a, b, false)
	wdesc, _ := b.Desc(wfd)
	tfd := b.Install(NewTeeDesc(m, wdesc, NewNullDesc(m)))
	eng.Go("p", func(p *sim.Proc) {
		if _, err := m.IOLRead(p, b, tfd, MaxIO); !errors.Is(err, ErrNotSupported) {
			t.Errorf("IOLRead on tee = %v, want ErrNotSupported", err)
		}
		if _, err := m.ReadPOSIX(p, b, tfd, make([]byte, 8)); !errors.Is(err, ErrNotSupported) {
			t.Errorf("ReadPOSIX on tee = %v, want ErrNotSupported", err)
		}
	})
	eng.Run()
}
