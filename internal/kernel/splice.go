package kernel

import (
	"io"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// The splice fast path: a sendfile-style syscall that moves sealed buffer
// references from one descriptor to another entirely inside the kernel.
// Where IOL_read + IOL_write cross the user/kernel boundary twice — two
// syscalls, per-slice validation of the user-supplied aggregate, read
// grants into the caller's domain — SpliceAt crosses once and hands the
// sink the source's kernel-resident aggregate directly. No data is copied,
// no user mapping is established, and because the buffers (and hence their
// ⟨id, generation, offset, length⟩ keys) are stable, every retransmission
// downstream hits the §3.9 checksum cache.
//
// Splice is positional only: the source is read at an explicit offset and
// no cursor is read or moved. Descriptors opt in through two capability
// interfaces. File descriptors and sealed-object descriptors are sources;
// reference-mode socket and pipe descriptors are sinks. Anything else fails
// with ErrNotSupported and the caller falls back to the read/write pair.

// SpliceSourceAt is the positional splice capability (pread-flavored): no
// cursor is read or moved, so one cached descriptor can feed concurrent
// splices. File and sealed-object descriptors implement it.
type SpliceSourceAt interface {
	SpliceOutAt(p *sim.Proc, off, n int64) (*core.Agg, error)
}

// SpliceSink is the capability of descriptors that can consume a
// kernel-resident sealed aggregate by reference. Ownership of the aggregate
// transfers to the sink on success; on error the caller still owns it.
type SpliceSink interface {
	SpliceIn(p *sim.Proc, a *core.Agg) error
}

// spliceSinkReady lets a sink whose splice support depends on instance
// state (a pipe's mode, a socket's send path) veto the splice before any
// source data is consumed.
type spliceSinkReady interface {
	spliceInSupported() bool
}

// SpliceAt moves up to n bytes from srcFD, starting at offset off, to dstFD
// entirely in-kernel (the sendfile(2) shape): one syscall, sealed buffer
// references end to end, zero copy charge. The source's cursor is neither
// read nor moved, so the one descriptor a server caches per file can feed
// every concurrent connection. It returns the number of bytes moved. io.EOF
// reports off already at end of the source; ErrNotSupported reports a
// descriptor pair without the splice capabilities (the caller should fall
// back to IOL_read + IOL_write); ErrClosed is the sink's EPIPE. A partial
// count with a nil error means the source ran out mid-way (short splice),
// like a short write(2). The syscall is charged on success and on every
// error path alike.
func (m *Machine) SpliceAt(p *sim.Proc, pr *Process, dstFD, srcFD int, off, n int64) (int64, error) {
	m.syscall(p)
	return m.spliceAt(p, pr, dstFD, srcFD, off, n)
}

// spliceAt is SpliceAt minus the syscall charge — the form the submission
// ring executes behind its batched Submit. The sink is capability-checked,
// and may veto, before any source data is consumed. Each hop charges one
// aggregate operation: the kernel threads the existing slice list through,
// it never re-validates it slice by slice the way the user boundary must.
func (m *Machine) spliceAt(p *sim.Proc, pr *Process, dstFD, srcFD int, off, n int64) (int64, error) {
	src, err := pr.Desc(srcFD)
	if err != nil {
		return 0, err
	}
	sink, err := descAs[SpliceSink](pr, dstFD)
	if err != nil {
		return 0, err
	}
	if sr, ok := sink.(spliceSinkReady); ok && !sr.spliceInSupported() {
		return 0, ErrNotSupported
	}
	source, ok := src.(SpliceSourceAt)
	if !ok {
		return 0, ErrNotSupported
	}
	var moved int64
	for moved < n {
		a, err := source.SpliceOutAt(p, off+moved, n-moved)
		if err != nil {
			if err == io.EOF && moved > 0 {
				return moved, nil
			}
			return moved, err
		}
		got := int64(a.Len())
		if got == 0 {
			a.Release()
			return moved, nil
		}
		m.Host.Use(p, 2*m.Costs.AggOp) // source hand-off + sink enqueue
		if err := sink.SpliceIn(p, a); err != nil {
			a.Release()
			return moved, err
		}
		moved += got
	}
	return moved, nil
}
