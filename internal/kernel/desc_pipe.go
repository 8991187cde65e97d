package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/sim"
)

// pipeDesc is one end of a UNIX pipe. A reference-mode pipe (§4.4) moves
// aggregates with no copies; a copy-mode pipe is the conventional kernel
// byte FIFO. Both ends answer the full Desc surface: IOL calls on a
// copy-mode pipe and POSIX calls on a reference-mode pipe adapt at the
// boundary, charging exactly the copies the adaptation performs — the
// backward-compatibility story of §4.2.
type pipeDesc struct {
	m     *Machine
	pp    *ipcsim.Pipe
	write bool // this descriptor is the write end

	// pending holds the tail of a received aggregate that exceeded the
	// reader's requested length; the next read continues from it.
	pending *core.Agg

	// nonblock makes reads and writes return ErrAgain instead of parking
	// (O_NONBLOCK); readiness loops set it via Machine.SetNonblock.
	nonblock bool
}

func (d *pipeDesc) RefMode() bool { return d.pp.Mode() == ipcsim.ModeRef }

// Pipe exposes the underlying pipe (for its Stats). PipeOf unwraps it.
func (d *pipeDesc) Pipe() *ipcsim.Pipe { return d.pp }

// PipeOf returns the pipe behind a pipe descriptor, for diagnostics
// (bytes moved / copied counters).
func PipeOf(d Desc) (*ipcsim.Pipe, bool) {
	pd, ok := d.(*pipeDesc)
	if !ok {
		return nil, false
	}
	return pd.pp, true
}

// takeAgg produces the next aggregate from the pending tail or the pipe.
// nil means end of stream. On a copy-mode pipe the drained bytes are
// wrapped into an aggregate from pr's default pool without an extra
// charge: the pipe already charged the copy that landed them in the
// process.
func (d *pipeDesc) takeAgg(p *sim.Proc, pr *Process) *core.Agg {
	if d.pending != nil {
		a := d.pending
		d.pending = nil
		return a
	}
	if d.pp.Mode() == ipcsim.ModeRef {
		return d.pp.ReadAgg(p)
	}
	buf := make([]byte, ipcsim.CapDefault)
	n := d.pp.Read(p, buf)
	if n == 0 {
		return nil
	}
	return core.PackBytes(nil, pr.Pool, buf[:n])
}

// readWouldBlock reports whether a read right now would park the proc.
func (d *pipeDesc) readWouldBlock() bool {
	return d.pending == nil && !d.pp.ReadReady()
}

func (d *pipeDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	if d.write {
		return nil, ErrNotSupported
	}
	if d.nonblock && d.readWouldBlock() {
		return nil, ErrAgain
	}
	a := d.takeAgg(p, pr)
	if a == nil {
		return nil, io.EOF
	}
	return splitPending(a, n, &d.pending), nil
}

// SpliceOut hands over queued aggregates of a reference-mode pipe without
// mapping them into the process (socket→pipe→socket chains stay in-kernel).
// Copy-mode pipes have no sealed buffers to pass: ErrNotSupported.
func (d *pipeDesc) SpliceOut(p *sim.Proc, n int64) (*core.Agg, error) {
	if d.write || d.pp.Mode() != ipcsim.ModeRef {
		return nil, ErrNotSupported
	}
	a := d.pending
	d.pending = nil
	if a == nil {
		if a = d.pp.ReadAgg(p); a == nil {
			return nil, io.EOF
		}
	}
	return splitPending(a, n, &d.pending), nil
}

// spliceInSupported gates the sink capability: only the write end of a
// reference-mode pipe can enqueue sealed aggregates.
func (d *pipeDesc) spliceInSupported() bool {
	return d.write && d.pp.Mode() == ipcsim.ModeRef
}

// SpliceIn enqueues a kernel-resident sealed aggregate on a reference-mode
// pipe; a departed reader is the splice caller's EPIPE (ErrClosed).
func (d *pipeDesc) SpliceIn(p *sim.Proc, a *core.Agg) error {
	if !d.write || d.pp.Mode() != ipcsim.ModeRef {
		return ErrNotSupported
	}
	if d.pp.WriteClosed() || d.pp.ReadClosed() {
		return ErrClosed
	}
	if !d.pp.WriteAgg(p, a.Clone()) {
		return ErrClosed
	}
	a.Release()
	return nil
}

func (d *pipeDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	if !d.write {
		return ErrNotSupported
	}
	if d.pp.WriteClosed() || d.pp.ReadClosed() {
		return ErrClosed
	}
	if d.nonblock && !d.pp.CanWrite(a.Len()) {
		return ErrAgain
	}
	if d.pp.Mode() == ipcsim.ModeRef {
		d.pp.WriteAgg(p, a)
		return nil
	}
	// Copy-mode pipe: the aggregate's bytes enter the kernel FIFO by copy
	// (charged by the pipe), then the reference is dropped.
	d.pp.Write(p, a.Materialize())
	a.Release()
	return nil
}

func (d *pipeDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	if d.write {
		return 0, ErrNotSupported
	}
	if d.nonblock && d.readWouldBlock() {
		return 0, ErrAgain
	}
	if d.pp.Mode() == ipcsim.ModeCopy && d.pending == nil {
		n := d.pp.Read(p, dst)
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	}
	// Reference-mode pipe read with copy semantics: take the next
	// aggregate and pay the copy-out the POSIX interface implies (§4.2).
	a := d.takeAgg(p, pr)
	if a == nil {
		return 0, io.EOF
	}
	return d.m.copyOut(p, a, dst, &d.pending), nil
}

func (d *pipeDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	if !d.write {
		return 0, ErrNotSupported
	}
	if d.pp.WriteClosed() || d.pp.ReadClosed() {
		return 0, ErrClosed
	}
	if d.nonblock && !d.pp.CanWrite(len(src)) {
		return 0, ErrAgain
	}
	if d.pp.Mode() == ipcsim.ModeCopy {
		d.pp.Write(p, src)
		return len(src), nil
	}
	// Copy semantics over a reference pipe: pack the caller's bytes into
	// fresh buffers (the producer's copy, charged by PackBytes), then pass
	// by reference.
	d.pp.WriteAgg(p, core.PackBytes(p, pr.Pool, src))
	return len(src), nil
}

func (d *pipeDesc) Seek(int64, int) (int64, error) { return 0, ErrNotSupported }

func (d *pipeDesc) setNonblock(on bool) { d.nonblock = on }

// PollReady implements Pollable for whichever end this descriptor is.
func (d *pipeDesc) PollReady() Interest {
	if d.write {
		if d.pp.ReadClosed() || d.pp.WriteClosed() || d.pp.CanWrite(1) {
			return Writable
		}
		return 0
	}
	if !d.readWouldBlock() {
		return Readable
	}
	return 0
}

// SetPollNotify implements Pollable: the read end listens for arriving
// data / writer close, the write end for freed space / reader close.
func (d *pipeDesc) SetPollNotify(fn func()) {
	if d.write {
		d.pp.SetWriteNotify(fn)
	} else {
		d.pp.SetReadNotify(fn)
	}
}

func (d *pipeDesc) Close(p *sim.Proc) error {
	if d.write {
		if !d.pp.WriteClosed() {
			d.pp.CloseWrite(p)
		}
		return nil
	}
	if d.pending != nil {
		d.pending.Release()
		d.pending = nil
	}
	// Tell the pipe its reader is gone so blocked writers wake instead of
	// hanging (their later writes see ErrClosed).
	d.pp.CloseRead(p)
	return nil
}
