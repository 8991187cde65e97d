// Package ipcsim models UNIX pipes in two flavors: the conventional
// copy-based pipe (data is copied into a bounded kernel buffer on write and
// out again on read) and the IO-Lite pipe (§4.4), which passes buffer
// aggregates by reference with persistent cross-domain read grants, making
// producer/consumer IPC copy-free.
package ipcsim

import (
	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Mode selects the pipe implementation.
type Mode int

// Pipe flavors.
const (
	ModeCopy Mode = iota // conventional BSD pipe
	ModeRef              // IO-Lite reference-passing pipe
)

// CapDefault is the conventional kernel pipe buffer size.
const CapDefault = 64 << 10

// Pipe is a unidirectional byte stream between two protection domains on
// one host.
type Pipe struct {
	eng   *sim.Engine
	costs *sim.CostModel
	cpu   *sim.Resource // host CPU; nil = uncharged
	vm    *mem.VM

	mode         Mode
	cap          int
	readerDomain *mem.Domain

	// Copy mode: a byte FIFO in kernel memory.
	buf []byte
	// Ref mode: a FIFO of aggregates.
	aggs []*core.Agg

	bytes   int
	readers sim.WaitQueue
	writers sim.WaitQueue
	wClosed bool
	rClosed bool

	// rNotify/wNotify fire (if set) whenever the read/write side becomes
	// ready: data or EOF for the reader, space or EPIPE for the writer.
	// Readiness descriptors hang their poll wakeups here.
	rNotify func()
	wNotify func()

	kernPages int // TagSockBuf-style accounting of the kernel pipe buffer

	bytesMoved  int64
	copiesMoved int64 // bytes physically copied (0 in ref mode)
	switches    int64 // blocking transitions, each charged a context switch
}

// New creates a pipe. readerDomain is the consuming protection domain (ref
// mode grants it read access to transferred chunks); vm may be nil to skip
// kernel-buffer memory accounting.
func New(eng *sim.Engine, costs *sim.CostModel, cpu *sim.Resource, vm *mem.VM, mode Mode, readerDomain *mem.Domain) *Pipe {
	return &Pipe{
		eng:          eng,
		costs:        costs,
		cpu:          cpu,
		vm:           vm,
		mode:         mode,
		cap:          CapDefault,
		readerDomain: readerDomain,
	}
}

// Mode returns the pipe's flavor.
func (pp *Pipe) Mode() Mode { return pp.mode }

// use charges CPU time to p.
func (pp *Pipe) use(p *sim.Proc, d sim.Duration) {
	if pp.cpu != nil {
		pp.cpu.Use(p, d)
	} else if d > 0 {
		p.Sleep(d)
	}
}

// block parks p on q, then charges the context switch that the blocking
// transition costs. The park must come first: yielding between a state
// check and the enqueue would lose wakeups issued in between.
func (pp *Pipe) block(p *sim.Proc, q *sim.WaitQueue) {
	pp.switches++
	q.Wait(p)
	pp.use(p, pp.costs.ProcSwitch)
}

// accountKernBuf tracks the kernel pipe buffer's memory.
func (pp *Pipe) accountKernBuf() {
	if pp.vm == nil {
		return
	}
	want := mem.PagesFor(pp.bytes)
	if pp.mode == ModeRef {
		want = 0 // aggregates are IO-Lite memory already accounted by their pool
	}
	if want > pp.kernPages {
		pp.vm.Reserve(mem.TagSockBuf, want-pp.kernPages)
		pp.kernPages = want
	} else if want < pp.kernPages {
		pp.vm.Release(mem.TagSockBuf, pp.kernPages-want)
		pp.kernPages = want
	}
}

// Write sends the contents of data down a copy-mode pipe: one syscall plus
// a physical copy into the kernel buffer, admitted piecewise as the reader
// drains. Panics on a ref-mode pipe.
func (pp *Pipe) Write(p *sim.Proc, data []byte) {
	if pp.mode != ModeCopy {
		panic("ipcsim: Write on ref-mode pipe; use WriteAgg")
	}
	if pp.wClosed {
		panic("ipcsim: write on closed pipe")
	}
	for off := 0; off < len(data); {
		for pp.bytes >= pp.cap {
			if pp.rClosed {
				return
			}
			pp.block(p, &pp.writers)
		}
		if pp.rClosed {
			// No reader will ever drain this: discard the rest (the
			// caller's EPIPE is the descriptor layer's ErrClosed).
			return
		}
		take := len(data) - off
		if room := pp.cap - pp.bytes; take > room {
			take = room
		}
		pp.use(p, pp.costs.Copy(take))
		if pp.rClosed {
			// The reader vanished while the copy was charged: the buffer
			// was discarded, do not repopulate it.
			return
		}
		pp.buf = append(pp.buf, data[off:off+take]...)
		pp.bytes += take
		pp.bytesMoved += int64(take)
		pp.copiesMoved += int64(take)
		pp.accountKernBuf()
		pp.readers.Wake(-1)
		pp.noteReadable()
		off += take
	}
}

// Read fills dst from a copy-mode pipe, returning the count (0 at EOF): one
// syscall plus a physical copy out of the kernel buffer.
func (pp *Pipe) Read(p *sim.Proc, dst []byte) int {
	if pp.mode != ModeCopy {
		panic("ipcsim: Read on ref-mode pipe; use ReadAgg")
	}
	for pp.bytes == 0 {
		if pp.wClosed || pp.rClosed {
			// EOF, or this end itself was closed while we were blocked (a
			// concurrent Close of the read fd): nothing left to consume.
			return 0
		}
		pp.block(p, &pp.readers)
	}
	n := copy(dst, pp.buf)
	pp.use(p, pp.costs.Copy(n))
	if pp.rClosed {
		// CloseRead discarded the buffer while the copy-out was charged;
		// the bytes already copied into dst are all there is to consume.
		return n
	}
	pp.buf = pp.buf[n:]
	pp.bytes -= n
	pp.copiesMoved += int64(n)
	pp.accountKernBuf()
	pp.writers.Wake(-1)
	pp.noteWritable()
	return n
}

// WriteAgg sends an aggregate down a ref-mode pipe by reference: pointer
// manipulation per slice and (first time per chunk) a read grant for the
// reader's domain. Ownership of agg transfers to the pipe. It reports
// false when the reader is gone and the aggregate was discarded (the
// caller's EPIPE). Panics on a copy-mode pipe. The syscall that carried
// the write is charged by the descriptor layer's entry point, not here.
func (pp *Pipe) WriteAgg(p *sim.Proc, agg *core.Agg) bool {
	if pp.mode != ModeRef {
		panic("ipcsim: WriteAgg on copy-mode pipe; use Write")
	}
	if pp.wClosed {
		panic("ipcsim: write on closed pipe")
	}
	n := agg.Len()
	pp.use(p, sim.Duration(agg.NumSlices())*pp.costs.AggOp)
	for pp.bytes > 0 && pp.bytes+n > pp.cap {
		if pp.rClosed {
			break
		}
		pp.block(p, &pp.writers)
	}
	if pp.rClosed {
		agg.Release()
		return false
	}
	core.Transfer(p, agg, pp.readerDomain)
	pp.aggs = append(pp.aggs, agg)
	pp.bytes += n
	pp.bytesMoved += int64(n)
	pp.readers.Wake(-1)
	pp.noteReadable()
	return true
}

// ReadAgg receives the next aggregate from a ref-mode pipe (nil at EOF).
// The caller owns the returned aggregate. As with WriteAgg, the carrying
// syscall is charged at the descriptor boundary.
func (pp *Pipe) ReadAgg(p *sim.Proc) *core.Agg {
	if pp.mode != ModeRef {
		panic("ipcsim: ReadAgg on copy-mode pipe; use Read")
	}
	for len(pp.aggs) == 0 {
		if pp.wClosed || pp.rClosed {
			return nil
		}
		pp.block(p, &pp.readers)
	}
	a := pp.aggs[0]
	pp.aggs = pp.aggs[1:]
	pp.bytes -= a.Len()
	pp.use(p, sim.Duration(a.NumSlices())*pp.costs.AggOp)
	pp.writers.Wake(-1)
	pp.noteWritable()
	return a
}

// WriteClosed reports whether the write end has been closed.
func (pp *Pipe) WriteClosed() bool { return pp.wClosed }

// ReadClosed reports whether the read end has been closed.
func (pp *Pipe) ReadClosed() bool { return pp.rClosed }

// CloseRead marks the reader gone: buffered data is discarded and blocked
// writers wake (their remaining writes are dropped — the simulated EPIPE).
func (pp *Pipe) CloseRead(p *sim.Proc) {
	pp.rClosed = true
	pp.buf = nil
	for _, a := range pp.aggs {
		a.Release()
	}
	pp.aggs = nil
	pp.bytes = 0
	pp.accountKernBuf()
	pp.writers.Wake(-1)
	// A reader blocked on this very pipe (a ring worker executing a read op
	// while the application closes the fd) must wake too, to observe EOF.
	pp.readers.Wake(-1)
	pp.noteWritable()
	pp.noteReadable()
}

// CloseWrite marks end of stream; blocked readers see EOF once drained.
func (pp *Pipe) CloseWrite(p *sim.Proc) {
	pp.wClosed = true
	pp.readers.Wake(-1)
	pp.noteReadable()
}

// Stats reports total bytes moved, bytes physically copied, and blocking
// context switches.
func (pp *Pipe) Stats() (moved, copied, switches int64) {
	return pp.bytesMoved, pp.copiesMoved, pp.switches
}

// ReadReady reports whether a read right now would complete without
// parking: data is buffered, or EOF/teardown is observable.
func (pp *Pipe) ReadReady() bool {
	if pp.mode == ModeCopy {
		return pp.bytes > 0 || pp.wClosed || pp.rClosed
	}
	return len(pp.aggs) > 0 || pp.wClosed || pp.rClosed
}

// CanWrite reports whether writing n bytes right now would be admitted
// without parking, mirroring each mode's admission rule (copy mode admits
// piecewise into free room; ref mode admits whole aggregates when the pipe
// is empty or the result fits the cap). Closed pipes never block — the
// write errors instead.
func (pp *Pipe) CanWrite(n int) bool {
	if pp.rClosed || pp.wClosed {
		return true
	}
	if pp.mode == ModeCopy {
		return pp.bytes+n <= pp.cap
	}
	return pp.bytes == 0 || pp.bytes+n <= pp.cap
}

// SetReadNotify registers fn to fire whenever the read side becomes ready
// (data arrives, the writer closes, or this end closes).
func (pp *Pipe) SetReadNotify(fn func()) { pp.rNotify = fn }

// SetWriteNotify registers fn to fire whenever the write side becomes
// ready (space frees, or the reader departs).
func (pp *Pipe) SetWriteNotify(fn func()) { pp.wNotify = fn }

func (pp *Pipe) noteReadable() {
	if pp.rNotify != nil {
		pp.rNotify()
	}
}

func (pp *Pipe) noteWritable() {
	if pp.wNotify != nil {
		pp.wNotify()
	}
}
