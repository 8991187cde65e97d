package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// NullDesc is a /dev/null-style sink descriptor: writes are discarded,
// reads return end of stream. Because the kernel never moves the written
// bytes anywhere, a discard charges no copy work in either API family —
// an IOL_write releases the aggregate's references and a POSIX write
// drops the caller's bytes on the floor; only the syscall is paid. The
// sink counts what it swallowed, which makes it double as a cheap
// observation point (fcgi tests tee worker stdout into one to measure a
// stream without buffering it).
//
// Like NewAggDesc, it exists to exercise the Process.Install extension
// point: a new descriptor kind with no Machine changes.
type NullDesc struct {
	m *Machine

	bytes int64
	recs  int64
}

// NewNullDesc returns a sink descriptor for installation with
// Process.Install.
func NewNullDesc(m *Machine) *NullDesc { return &NullDesc{m: m} }

// Discarded reports how many bytes the sink has swallowed.
func (d *NullDesc) Discarded() int64 { return d.bytes }

// Writes reports how many write calls the sink has absorbed.
func (d *NullDesc) Writes() int64 { return d.recs }

func (d *NullDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	return nil, io.EOF
}

func (d *NullDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	d.bytes += int64(a.Len())
	d.recs++
	a.Release()
	return nil
}

func (d *NullDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	return 0, io.EOF
}

func (d *NullDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	d.bytes += int64(len(src))
	d.recs++
	return len(src), nil
}

func (d *NullDesc) Seek(int64, int) (int64, error) { return 0, ErrNotSupported }

func (d *NullDesc) Close(p *sim.Proc) error { return nil }
