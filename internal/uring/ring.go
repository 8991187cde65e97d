// Package uring is the application-facing face of the submission-ring
// subsystem: a staging API over kernel.RingDesc (batched syscalls). An
// event loop preps any number of descriptor operations, pays one charged
// syscall to Submit them all, and one more to Reap their completions — the
// io_uring shape, scaled to the simulator's cost model. The epoll shape
// needs no wrapper: a loop watches many descriptors through one
// kernel.ReadyDesc and pays one syscall per ready-set collection.
package uring

import (
	"iolite/internal/core"
	"iolite/internal/kernel"
	"iolite/internal/sim"
)

// Ring stages submission-queue entries and flushes them in batches. Not
// safe for concurrent use by multiple simulated processes — like a real
// ring, each belongs to one submitter.
type Ring struct {
	rd *kernel.RingDesc
	fd int

	staged    []kernel.SQE
	nextToken uint64
}

// New creates a ring over pr's descriptor table and installs it. The
// ring's fd is Pollable — readable when completions await Reap — so a
// kernel.ReadyDesc can watch it alongside the sockets whose ops it carries.
func New(m *kernel.Machine, pr *kernel.Process) *Ring {
	rd := kernel.NewRingDesc(m, pr)
	return &Ring{rd: rd, fd: pr.Install(rd)}
}

// FD returns the ring's descriptor number (for ReadyDesc.Watch).
func (r *Ring) FD() int { return r.fd }

// prep stages one entry and returns its token.
func (r *Ring) prep(sqe kernel.SQE) uint64 {
	r.nextToken++
	sqe.Token = r.nextToken
	r.staged = append(r.staged, sqe)
	return sqe.Token
}

// PrepIOLRead stages IOL_read: up to n bytes from fd as an aggregate,
// advancing the cursor. Ready deliveries coalesce into one completion.
func (r *Ring) PrepIOLRead(fd int, n int64) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpIOLRead, FD: fd, Off: -1, N: n})
}

// PrepIOLReadFull stages IOL_read that parks until at least need bytes
// have coalesced (MSG_WAITALL), still folding in everything ready up to n.
// One completion per record-sized read, however many deliveries carry it.
func (r *Ring) PrepIOLReadFull(fd int, need, n int64) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpIOLRead, FD: fd, Off: -1, N: n, Need: need})
}

// PrepIOLWrite stages IOL_write of a to fd. Ownership of a transfers to
// the ring now; a failed op releases it and reports the error in its CQE.
func (r *Ring) PrepIOLWrite(fd int, a *core.Agg) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpIOLWrite, FD: fd, Agg: a, N: int64(a.Len())})
}

// PrepReadPOSIXFull stages read(2) that parks until at least need bytes
// are in buf (MSG_WAITALL), still coalescing everything ready.
func (r *Ring) PrepReadPOSIXFull(fd int, need int64, buf []byte) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpReadPOSIX, FD: fd, Buf: buf, Need: need})
}

// PrepWritePOSIX stages write(2) of buf to fd.
func (r *Ring) PrepWritePOSIX(fd int, buf []byte) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpWritePOSIX, FD: fd, Buf: buf})
}

// PrepSpliceAt stages the in-kernel sendfile: n bytes from srcFD at off
// into dstFD, sealed buffer references end to end, zero copy charge.
func (r *Ring) PrepSpliceAt(dstFD, srcFD int, off, n int64) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpSpliceAt, FD: dstFD, SrcFD: srcFD, Off: off, N: n})
}

// PrepAccept stages an accept on listener fd; the completion's Res is the
// new connection's fd.
func (r *Ring) PrepAccept(lfd int) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpAccept, FD: lfd})
}

// PrepCork stages a TCP_CORK toggle ordered with the staged writes around
// it, so cork → writes → uncork survives in one submission.
func (r *Ring) PrepCork(fd int, on bool) uint64 {
	return r.prep(kernel.SQE{Op: kernel.OpCork, FD: fd, On: on})
}

// Staged reports how many entries await Submit.
func (r *Ring) Staged() int { return len(r.staged) }

// Submit flushes every staged entry for one charged syscall and returns
// the number submitted. Submitting nothing still charges the syscall that
// was made — don't call it idly.
func (r *Ring) Submit(p *sim.Proc) int {
	n := r.rd.Submit(p, r.staged)
	r.staged = nil
	return n
}

// Reap charges one syscall and collects completions, blocking until at
// least min are available (or nothing remains in flight).
func (r *Ring) Reap(p *sim.Proc, min int) []kernel.CQE {
	return r.rd.Reap(p, min)
}

// Outstanding reports in-flight ops plus completions not yet reaped.
func (r *Ring) Outstanding() int { return r.rd.Outstanding() }

// Stats reports ops carried and the Submit/Reap syscalls that carried
// them: the batching ratio (ops per syscall) the subsystem exists to
// raise.
func (r *Ring) Stats() (ops, submits, reaps int64) { return r.rd.Stats() }
