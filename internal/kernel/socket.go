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
	sd, err := descAs[*sockDesc](pr, fd)
	if err != nil {
		return err
	}
	sd.ep.SetCork(on)
	return nil
}

// SetNonblock is fcntl(O_NONBLOCK) on a listener descriptor: while on,
// an Accept with no pending connection returns ErrAgain instead of
// parking, so a readiness loop drains the backlog a ReadyDesc reported
// and stops at its bottom. One syscall is charged. Every other descriptor
// reports ErrNotSupported: sockets and pipes always block, and a readiness
// loop reads a socket only once a ReadyDesc reports it readable.
func (m *Machine) SetNonblock(p *sim.Proc, pr *Process, fd int, on bool) error {
	m.syscall(p)
	ld, err := descAs[*listenDesc](pr, fd)
	if err != nil {
		return err
	}
	ld.nonblock = on
	return nil
}
