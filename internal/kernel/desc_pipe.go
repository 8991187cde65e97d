package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// pipeCap is the conventional kernel pipe buffer size.
const pipeCap = 64 << 10

// pipe is a unidirectional stream between two protection domains on one
// machine, shared by its two pipeDesc ends. A copy-mode pipe is the
// conventional BSD pipe: a write copies data into a bounded kernel buffer
// and a read copies it out again. A reference-mode pipe (§4.4) passes
// buffer aggregates with persistent read grants for the reader's domain,
// making producer/consumer IPC copy-free. The mode is fixed at Pipe2.
type pipe struct {
	m            *Machine
	ref          bool
	readerDomain *mem.Domain

	// Copy mode: a byte FIFO in kernel memory.
	buf []byte
	// Reference mode: a FIFO of aggregates.
	aggs []*core.Agg

	bytes   int
	readers sim.WaitQueue
	writers sim.WaitQueue
	wClosed bool
	rClosed bool

	kernPages int // TagSockBuf-style accounting of the kernel pipe buffer

	moved    int64
	copied   int64 // bytes physically copied (0 in reference mode)
	switches int64 // blocking transitions, each charged a context switch
}

// block parks p on q, then charges the context switch that the blocking
// transition costs. The park must come first: yielding between a state
// check and the enqueue would lose wakeups issued in between.
func (pp *pipe) block(p *sim.Proc, q *sim.WaitQueue) {
	pp.switches++
	q.Wait(p)
	pp.m.Host.Use(p, pp.m.Costs.ProcSwitch)
}

// accountKernBuf tracks the kernel pipe buffer's memory. Only the
// copy-mode FIFO occupies kernel pages: aggregates are IO-Lite memory
// their pool already accounts for, so reference mode never calls this
// with bytes queued.
func (pp *pipe) accountKernBuf() {
	want := mem.PagesFor(pp.bytes)
	if want > pp.kernPages {
		pp.m.VM.Reserve(mem.TagSockBuf, want-pp.kernPages)
	} else if want < pp.kernPages {
		pp.m.VM.Release(mem.TagSockBuf, pp.kernPages-want)
	}
	pp.kernPages = want
}

// closed reports whether either end has gone: reads see EOF and writes
// error instead of parking.
func (pp *pipe) closed() bool { return pp.wClosed || pp.rClosed }

// write sends data down a copy-mode pipe: a physical copy into the kernel
// buffer, admitted piecewise as the reader drains. A departed reader
// discards the rest (the caller's EPIPE is ErrClosed).
func (pp *pipe) write(p *sim.Proc, data []byte) {
	for off := 0; off < len(data); {
		for pp.bytes >= pipeCap && !pp.rClosed {
			pp.block(p, &pp.writers)
		}
		if pp.rClosed {
			return
		}
		take := min(len(data)-off, pipeCap-pp.bytes)
		pp.m.Host.Use(p, pp.m.Costs.Copy(take))
		if pp.rClosed {
			// The reader vanished while the copy was charged: the buffer
			// was discarded, do not repopulate it.
			return
		}
		pp.buf = append(pp.buf, data[off:off+take]...)
		pp.bytes += take
		pp.moved += int64(take)
		pp.copied += int64(take)
		pp.accountKernBuf()
		pp.readers.Wake(-1)
		off += take
	}
}

// read fills dst from a copy-mode pipe, returning the count (0 at EOF): a
// physical copy out of the kernel buffer.
func (pp *pipe) read(p *sim.Proc, dst []byte) int {
	for pp.bytes == 0 {
		if pp.closed() {
			// EOF, or this end itself was closed while we were blocked (a
			// concurrent Close of the read fd): nothing left to consume.
			return 0
		}
		pp.block(p, &pp.readers)
	}
	n := copy(dst, pp.buf)
	pp.m.Host.Use(p, pp.m.Costs.Copy(n))
	if pp.rClosed {
		// Close discarded the buffer while the copy-out was charged; the
		// bytes already copied into dst are all there is to consume.
		return n
	}
	pp.buf = pp.buf[n:]
	pp.bytes -= n
	pp.copied += int64(n)
	pp.accountKernBuf()
	pp.writers.Wake(-1)
	return n
}

// writeAgg sends an aggregate down a reference-mode pipe: pointer
// manipulation per slice and (first time per chunk) a read grant for the
// reader's domain. Ownership of agg transfers to the pipe. It reports
// false when the reader is gone and the aggregate was discarded (the
// caller's EPIPE).
func (pp *pipe) writeAgg(p *sim.Proc, agg *core.Agg) bool {
	n := agg.Len()
	pp.m.Host.Use(p, sim.Duration(agg.NumSlices())*pp.m.Costs.AggOp)
	for pp.bytes > 0 && pp.bytes+n > pipeCap && !pp.rClosed {
		pp.block(p, &pp.writers)
	}
	if pp.rClosed {
		agg.Release()
		return false
	}
	core.Transfer(p, agg, pp.readerDomain)
	pp.aggs = append(pp.aggs, agg)
	pp.bytes += n
	pp.moved += int64(n)
	pp.readers.Wake(-1)
	return true
}

// readAgg receives the next aggregate from a reference-mode pipe (nil at
// EOF). The caller owns the returned aggregate.
func (pp *pipe) readAgg(p *sim.Proc) *core.Agg {
	for len(pp.aggs) == 0 {
		if pp.closed() {
			return nil
		}
		pp.block(p, &pp.readers)
	}
	a := pp.aggs[0]
	pp.aggs = pp.aggs[1:]
	pp.bytes -= a.Len()
	pp.m.Host.Use(p, sim.Duration(a.NumSlices())*pp.m.Costs.AggOp)
	pp.writers.Wake(-1)
	return a
}

// pipeDesc is one end of a UNIX pipe. A reference-mode pipe (§4.4) moves
// aggregates with no copies; a copy-mode pipe is the conventional kernel
// byte FIFO. Both ends answer the full Desc surface: IOL calls on a
// copy-mode pipe and POSIX calls on a reference-mode pipe adapt at the
// boundary, charging exactly the copies the adaptation performs — the
// backward-compatibility story of §4.2.
type pipeDesc struct {
	pp    *pipe
	write bool // this descriptor is the write end

	// pending holds the tail of a received aggregate that exceeded the
	// reader's requested length; the next read continues from it.
	pending *core.Agg
}

// PipeStats reports the pipe behind a pipe descriptor's bytes moved,
// bytes physically copied (0 in reference mode), and blocking context
// switches, for diagnostics. ok is false when d is not a pipe end.
func PipeStats(d Desc) (moved, copied, switches int64, ok bool) {
	pd, ok := d.(*pipeDesc)
	if !ok {
		return 0, 0, 0, false
	}
	return pd.pp.moved, pd.pp.copied, pd.pp.switches, true
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
	if d.pp.ref {
		return d.pp.readAgg(p)
	}
	buf := make([]byte, pipeCap)
	n := d.pp.read(p, buf)
	if n == 0 {
		return nil
	}
	return core.PackBytes(nil, pr.Pool, buf[:n])
}

func (d *pipeDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	if d.write {
		return nil, ErrNotSupported
	}
	a := d.takeAgg(p, pr)
	if a == nil {
		return nil, io.EOF
	}
	return splitPending(a, n, &d.pending), nil
}

// spliceInSupported gates the sink capability: only the write end of a
// reference-mode pipe can enqueue sealed aggregates.
func (d *pipeDesc) spliceInSupported() bool {
	return d.write && d.pp.ref
}

// SpliceIn enqueues a kernel-resident sealed aggregate on a reference-mode
// pipe; a departed reader is the splice caller's EPIPE (ErrClosed).
func (d *pipeDesc) SpliceIn(p *sim.Proc, a *core.Agg) error {
	if !d.spliceInSupported() {
		return ErrNotSupported
	}
	if d.pp.closed() || !d.pp.writeAgg(p, a.Clone()) {
		return ErrClosed
	}
	a.Release()
	return nil
}

func (d *pipeDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	if !d.write {
		return ErrNotSupported
	}
	if d.pp.closed() {
		return ErrClosed
	}
	if d.pp.ref {
		d.pp.writeAgg(p, a)
		return nil
	}
	// Copy-mode pipe: the aggregate's bytes enter the kernel FIFO by copy
	// (charged by the pipe), then the reference is dropped.
	d.pp.write(p, a.Materialize())
	a.Release()
	return nil
}

func (d *pipeDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	if d.write {
		return 0, ErrNotSupported
	}
	if !d.pp.ref && d.pending == nil {
		n := d.pp.read(p, dst)
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
	return d.pp.m.copyOut(p, a, dst, &d.pending), nil
}

func (d *pipeDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	if !d.write {
		return 0, ErrNotSupported
	}
	if d.pp.closed() {
		return 0, ErrClosed
	}
	if !d.pp.ref {
		d.pp.write(p, src)
		return len(src), nil
	}
	// Copy semantics over a reference pipe: pack the caller's bytes into
	// fresh buffers (the producer's copy, charged by PackBytes), then pass
	// by reference.
	d.pp.writeAgg(p, core.PackBytes(p, pr.Pool, src))
	return len(src), nil
}

// PollReady implements readyReporter for the read end: readable when a
// read would complete without parking — data is buffered, or EOF/teardown
// is observable (queued bytes imply queued aggregates, so one test serves
// both modes). The ring's receive coalescing asks it after a read
// succeeded, which only a read end does. A pipe cannot be watched: it has
// no readiness hook for a ReadyDesc.
func (d *pipeDesc) PollReady() Interest {
	pp := d.pp
	if d.pending != nil || len(pp.aggs) > 0 || pp.bytes > 0 || pp.closed() {
		return Readable
	}
	return 0
}

// Close shuts this end. Closing the write end marks end of stream: blocked
// readers see EOF once the pipe drains. Closing the read end discards the
// buffered data and wakes everyone parked on the pipe: writers, whose
// remaining writes are dropped (the simulated EPIPE), and any reader still
// blocked on this very end (a ring worker executing a read op while the
// application closes the fd), which observes EOF.
func (d *pipeDesc) Close(p *sim.Proc) error {
	pp := d.pp
	if d.write {
		if !pp.wClosed {
			pp.wClosed = true
			pp.readers.Wake(-1)
		}
		return nil
	}
	if d.pending != nil {
		d.pending.Release()
		d.pending = nil
	}
	pp.rClosed = true
	pp.buf = nil
	for _, a := range pp.aggs {
		a.Release()
	}
	pp.aggs = nil
	pp.bytes = 0
	pp.accountKernBuf()
	pp.writers.Wake(-1)
	pp.readers.Wake(-1)
	return nil
}
