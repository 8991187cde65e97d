package kernel

import (
	"iolite/internal/core"
	"iolite/internal/sim"
)

// teeDesc is a write-only descriptor that duplicates every write onto two
// underlying descriptors: the primary (whose errors and byte counts the
// caller sees) and a secondary observer (best effort; its errors are
// ignored). With immutable IO-Lite buffers the duplication is free of
// data work — an IOL_write clones the aggregate, so both targets share
// the same sealed buffers and no byte is copied. On the POSIX path each
// target's own write performs (and charges) its copy as usual.
//
// The tee does not own its targets: closing the tee fd leaves them open,
// so an existing descriptor can be observed through a tee while its own
// fd stays valid (fcgi tests tee a worker's stdout pipe into a NullDesc
// to count response bytes without disturbing the stream).
type teeDesc struct {
	m         *Machine
	primary   Desc
	secondary Desc
}

// NewTeeDesc returns a tee over primary and secondary for installation
// with Process.Install. One write syscall covers both targets (charged at
// the Machine boundary); each target still charges its own data costs.
// Reads and seeks are not supported.
func NewTeeDesc(m *Machine, primary, secondary Desc) Desc {
	return &teeDesc{m: m, primary: primary, secondary: secondary}
}

func (d *teeDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	return nil, ErrNotSupported
}

func (d *teeDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	clone := a.Clone()
	if err := d.secondary.WriteAgg(p, pr, clone); err != nil {
		// Best effort: the observer's failure must not break the stream —
		// but on error the write leaves ownership with us, so drop the
		// clone's references rather than pin its buffers forever.
		clone.Release()
	}
	return d.primary.WriteAgg(p, pr, a)
}

func (d *teeDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	return 0, ErrNotSupported
}

func (d *teeDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	if _, err := d.secondary.WriteCopy(p, pr, src); err != nil {
		_ = err
	}
	return d.primary.WriteCopy(p, pr, src)
}

func (d *teeDesc) Seek(int64, int) (int64, error) { return 0, ErrNotSupported }

// Close releases the tee itself only; the targets remain open (they have
// their own fds or owners).
func (d *teeDesc) Close(p *sim.Proc) error { return nil }
