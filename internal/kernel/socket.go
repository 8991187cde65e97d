package kernel

import "iolite/internal/sim"

// corker is the capability of descriptors whose transport can gather
// adjacent writes into full segments (sockets; see sockDesc.SetCork).
type corker interface {
	SetCork(on bool)
}

// Corkable reports whether a descriptor's transport understands TCP_CORK
// (an uncharged capability probe, for callers that decide once at setup
// whether to cork their writes at all).
func Corkable(d Desc) bool {
	_, ok := d.(corker)
	return ok
}

// SetCork is setsockopt(TCP_CORK) on a socket descriptor: while on, the
// transport holds sub-MSS data so adjacent writes coalesce into MSS-sized
// segments; turning it off flushes the held tail. One syscall is charged.
// Descriptors without a segmenting transport (pipes, files) report
// ErrNotSupported — for them every write is already boundary-free.
func (m *Machine) SetCork(p *sim.Proc, pr *Process, fd int, on bool) error {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return err
	}
	c, ok := d.(corker)
	if !ok {
		return ErrNotSupported
	}
	c.SetCork(on)
	return nil
}

// nonblocker is the capability of descriptors that support O_NONBLOCK
// semantics (sockets, pipe ends, listeners; see ErrAgain).
type nonblocker interface {
	setNonblock(on bool)
}

// SetNonblock is fcntl(O_NONBLOCK) on a descriptor: while on, operations
// that would park the process return ErrAgain instead, and readiness is
// observed through a ReadyDesc. One syscall is charged. Descriptors without
// a blocking path (files, sealed objects) report ErrNotSupported — their
// operations never park.
func (m *Machine) SetNonblock(p *sim.Proc, pr *Process, fd int, on bool) error {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return err
	}
	nb, ok := d.(nonblocker)
	if !ok {
		return ErrNotSupported
	}
	nb.setNonblock(on)
	return nil
}
