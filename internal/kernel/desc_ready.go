package kernel

import "iolite/internal/sim"

// The readiness descriptor is the epoll half of the submission-ring
// subsystem: an installable descriptor that watches other descriptors for
// readiness transitions and reports the ready set for one charged syscall
// per Wait. Flash's real architecture is exactly this shape — one event
// loop multiplexing hundreds of connections through a readiness primitive —
// and the per-connection-process model the earlier PRs used overstated
// context-switch costs relative to it.

// Interest is a bitmask of readiness conditions a watcher cares about.
type Interest uint8

// Readiness conditions.
const (
	// Readable: a read would complete without parking (data, EOF, or
	// teardown observable).
	Readable Interest = 1 << iota
	// Acceptable: a listener has a pending connection (or has closed).
	Acceptable
)

// readyReporter is the capability of descriptors that can report their
// current readiness: sockets, listeners, rings and pipe read ends. The
// ring's receive coalescing asks it.
type readyReporter interface {
	// PollReady reports the conditions that currently hold.
	PollReady() Interest
}

// Pollable is the capability of descriptors that can also signal their
// readiness transitions, so a ReadyDesc can watch them: sockets, listeners
// and rings. Pipes report readiness but cannot be watched; descriptors
// without either (files, sealed objects) are always ready — their
// operations never park.
type Pollable interface {
	readyReporter
	// SetPollNotify registers fn to fire on any readiness transition. One
	// watcher per descriptor; registering replaces the previous hook.
	SetPollNotify(fn func())
}

// ReadyEvent is one ready descriptor in a Wait result.
type ReadyEvent struct {
	FD    int
	Ready Interest
}

// ReadyDesc is the readiness descriptor. Register fds with Watch, collect
// the ready set with Wait — one charged syscall per Wait regardless of how
// many descriptors are watched or ready. Install it with Process.Install
// like any descriptor; its own fd is not Pollable, so readiness loops do
// not nest.
type ReadyDesc struct {
	m  *Machine
	pr *Process

	order  []int
	wants  map[int]Interest
	waiter *sim.Proc
}

// NewReadyDesc creates a readiness descriptor for pr's descriptor table.
func NewReadyDesc(m *Machine, pr *Process) *ReadyDesc {
	return &ReadyDesc{m: m, pr: pr, wants: make(map[int]Interest)}
}

// Watch registers fd for the conditions in want. The registration is
// bookkeeping that rides the next Wait (like a poll op submitted through a
// ring), so it charges nothing. ErrNotSupported if the descriptor is not
// Pollable.
func (rd *ReadyDesc) Watch(fd int, want Interest) error {
	d, err := rd.pr.Desc(fd)
	if err != nil {
		return err
	}
	po, ok := d.(Pollable)
	if !ok {
		return ErrNotSupported
	}
	if _, seen := rd.wants[fd]; !seen {
		rd.order = append(rd.order, fd)
	}
	rd.wants[fd] = want
	po.SetPollNotify(rd.wake)
	// Level-triggered: a descriptor that is already ready must surface in
	// the next Wait even though no transition will fire the notify hook —
	// re-watching a connection with queued data wakes the loop now.
	if po.PollReady()&want != 0 {
		rd.wake()
	}
	return nil
}

// Unwatch removes fd from the watch set. Uncharged, like Watch.
func (rd *ReadyDesc) Unwatch(fd int) {
	if _, seen := rd.wants[fd]; !seen {
		return
	}
	delete(rd.wants, fd)
	for i, w := range rd.order {
		if w == fd {
			rd.order = append(rd.order[:i], rd.order[i+1:]...)
			break
		}
	}
}

// wake unparks a parked Wait; it is the notify hook every watched
// descriptor shares. Safe from engine and proc context alike (Unpark is).
func (rd *ReadyDesc) wake() {
	if rd.waiter != nil {
		rd.waiter.Unpark()
	}
}

// scan collects the current ready set. Descriptors whose fd has been
// closed drop out of the watch set silently (their entry is gone).
func (rd *ReadyDesc) scan() []ReadyEvent {
	var evs []ReadyEvent
	var dead []int
	for _, fd := range rd.order {
		d, err := rd.pr.Desc(fd)
		if err != nil {
			dead = append(dead, fd)
			continue
		}
		po, ok := d.(Pollable)
		if !ok {
			dead = append(dead, fd)
			continue
		}
		if r := po.PollReady() & rd.wants[fd]; r != 0 {
			evs = append(evs, ReadyEvent{FD: fd, Ready: r})
		}
	}
	for _, fd := range dead {
		rd.Unwatch(fd)
	}
	return evs
}

// Wait charges one syscall and blocks until at least one watched
// descriptor is ready, returning the ready set. The scan re-runs after
// every wakeup, so a condition consumed between notification and resume is
// never falsely reported; nothing is lost between scan and park because the
// simulation is single-threaded in between. Waiting with nothing watched
// returns an empty set rather than parking forever.
func (rd *ReadyDesc) Wait(p *sim.Proc) []ReadyEvent {
	rd.m.syscall(p)
	for {
		if evs := rd.scan(); len(evs) > 0 {
			return evs
		}
		if len(rd.wants) == 0 {
			return nil
		}
		rd.waiter = p
		p.Park()
		rd.waiter = nil
	}
}

// Close drops the watch set. A ReadyDesc has no data I/O of its own.
func (rd *ReadyDesc) Close(*sim.Proc) error {
	rd.wants = make(map[int]Interest)
	rd.order = nil
	return nil
}
