package kernel

import "iolite/internal/sim"

// SetCork is setsockopt(TCP_CORK) on a socket descriptor: while on, the
// transport holds sub-MSS data so adjacent writes coalesce into MSS-sized
// segments (a response header, then the spliced document); turning it off
// flushes the held tail. It works on any socket regardless of payload mode:
// the cork is about segment boundaries, not buffer ownership. One syscall
// is charged. Descriptors without a segmenting transport (pipes, files)
// report ErrNotSupported — for them every write is already boundary-free.
func (m *Machine) SetCork(p *sim.Proc, pr *Process, fd int, on bool) error {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return err
	}
	sd, ok := d.(*sockDesc)
	if !ok {
		return ErrNotSupported
	}
	sd.ep.SetCork(on)
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
