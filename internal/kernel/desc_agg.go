package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// aggDesc is a read-only descriptor over a sealed, kernel-resident buffer
// aggregate — a memfd-style object. Servers use it to hold hot responses
// (a caching proxy's per-stream cache, a pre-rendered document) behind an
// fd so the splice fast path can send them without any user-space handling:
// the aggregate never leaves the kernel, its buffers keep their identity,
// and every send after the first hits the checksum cache.
//
// It demonstrates the Process.Install extension point: a new descriptor
// kind with read, positional-read, and splice-source capabilities, added
// with no Machine changes.
type aggDesc struct {
	m   *Machine
	a   *core.Agg
	off int64
}

// NewAggDesc wraps a sealed aggregate as an installable read-only
// descriptor. Ownership of a's reference transfers to the descriptor; it is
// released when the last fd referencing it closes.
func NewAggDesc(m *Machine, a *core.Agg) Desc {
	return &aggDesc{m: m, a: a}
}

// rng clips [off, off+n) to the object and returns it as a caller-owned
// aggregate (same immutable buffers, no copy), or nil at end of object.
func (d *aggDesc) rng(off, n int64) *core.Agg {
	size := int64(d.a.Len())
	if off >= size {
		return nil
	}
	if n > size-off {
		n = size - off
	}
	return d.a.Range(int(off), int(n))
}

func (d *aggDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	a, err := d.ReadAggAt(p, pr, d.off, n)
	if err != nil {
		return nil, err
	}
	d.off += int64(a.Len())
	return a, nil
}

// ReadAggAt is the PReader capability: a positional IOL_read of the object.
func (d *aggDesc) ReadAggAt(p *sim.Proc, pr *Process, off, n int64) (*core.Agg, error) {
	a := d.rng(off, n)
	if a == nil {
		return nil, io.EOF
	}
	d.m.Host.Use(p, sim.Duration(a.NumSlices())*d.m.Costs.AggOp)
	core.Transfer(p, a, pr.Domain)
	return a, nil
}

// SpliceOutAt hands the sealed object over in-kernel: no user grant, no
// per-slice boundary validation — the flat splice hand-off.
func (d *aggDesc) SpliceOutAt(_ *sim.Proc, off, n int64) (*core.Agg, error) {
	a := d.rng(off, n)
	if a == nil {
		return nil, io.EOF
	}
	return a, nil
}

func (d *aggDesc) WriteAgg(p *sim.Proc, _ *Process, _ *core.Agg) error {
	return ErrNotSupported
}

func (d *aggDesc) ReadCopy(p *sim.Proc, _ *Process, dst []byte) (int, error) {
	if d.off >= int64(d.a.Len()) {
		return 0, io.EOF
	}
	n := d.a.ReadAt(dst, int(d.off))
	d.m.Host.Use(p, d.m.Costs.Copy(n))
	d.off += int64(n)
	return n, nil
}

func (d *aggDesc) WriteCopy(p *sim.Proc, _ *Process, _ []byte) (int, error) {
	return 0, ErrNotSupported
}

func (d *aggDesc) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		off += d.off
	case io.SeekEnd:
		off += int64(d.a.Len())
	default:
		return d.off, ErrNotSupported
	}
	if off < 0 {
		return d.off, ErrNotSupported
	}
	d.off = off
	return d.off, nil
}

func (d *aggDesc) Close(p *sim.Proc) error {
	d.a.Release()
	return nil
}
