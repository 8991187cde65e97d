package kernel

import (
	"io"

	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/sim"
)

// fileDesc is the regular-file descriptor: a cursor over an inode. The
// aggregate paths go through the unified file cache; the copy paths are
// the backward-compatible POSIX calls.
type fileDesc struct {
	m   *Machine
	f   *fsim.File
	off int64
}

// FileOf returns the inode behind a file descriptor, for callers that
// need metadata (size) or the mmap interface.
func FileOf(d Desc) (*fsim.File, bool) {
	fd, ok := d.(*fileDesc)
	if !ok {
		return nil, false
	}
	return fd.f, true
}

func (d *fileDesc) ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error) {
	a, err := d.ReadAggAt(p, pr, d.off, n)
	if err != nil {
		return nil, err
	}
	d.off += int64(a.Len())
	return a, nil
}

// ReadAggAt is the positional IOL_read (no cursor touched) — the PReader
// capability, and the file half of Fig. 2 (§3.5): the extent comes from
// the splice source below and is made readable in pr's domain, with no
// data copied. A hit costs a lookup plus VM grants (free in steady
// state); a miss adds the disk read. The caller's snapshot stays intact
// even if a writer later replaces the cached extent.
func (d *fileDesc) ReadAggAt(p *sim.Proc, pr *Process, off, n int64) (*core.Agg, error) {
	a, err := d.SpliceOutAt(p, off, n)
	if err != nil {
		return nil, err
	}
	d.m.Host.Use(p, sim.Duration(a.NumSlices())*d.m.Costs.AggOp)
	core.Transfer(p, a, pr.Domain)
	return a, nil
}

// SpliceOutAt is the positional splice source (the sendfile(2) shape),
// served through the unified cache.
func (d *fileDesc) SpliceOutAt(p *sim.Proc, off, n int64) (*core.Agg, error) {
	if off >= d.f.Size() {
		return nil, io.EOF
	}
	return d.m.readCached(p, d.f, off, n), nil
}

// WriteAgg is IOL_write on a file (Fig. 2, §3.5): the aggregate's contents
// replace [off, off+len) at the cursor. The cache entries covering that
// range are replaced — not overwritten — so concurrent readers' snapshots
// persist. No data copy occurs; the file system's write-behind picks the
// data up by reference.
func (d *fileDesc) WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error {
	m := d.m
	core.CheckReadable(a, pr.Domain) // writer must itself have access
	n := int64(a.Len())
	m.Host.Use(p, sim.Duration(a.NumSlices())*m.Costs.AggOp)
	m.FileCache.InvalidateOverlap(d.f.ID, d.off, n)
	m.FileCache.Insert(p, cache.Key{File: d.f.ID, Off: d.off, Len: n}, a)
	core.Transfer(p, a, m.KernelDomain)
	// Write-behind to the backing store; DMA, no CPU copy charged.
	m.FS.WriteRange(d.f, d.off, a.Materialize())
	// The generic IOL_write transfers ownership; the cache holds its own
	// references, so the caller's goes away here.
	a.Release()
	d.off += n
	return nil
}

// ReadCopy is the backward-compatible read(2): the data comes through the
// unified cache exactly as IOL_read's would, then is copied into the
// application's private buffer (§4.2: "a data copy operation is used to
// move data between application buffers and IO-Lite buffers").
func (d *fileDesc) ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error) {
	if d.off >= d.f.Size() {
		return 0, io.EOF
	}
	n := int64(len(dst))
	if d.off+n > d.f.Size() {
		n = d.f.Size() - d.off
	}
	if n == 0 {
		return 0, nil
	}
	a := d.m.readCached(p, d.f, d.off, n)
	a.ReadAt(dst[:n], 0)
	d.m.Host.Use(p, d.m.Costs.Copy(int(n)))
	a.Release()
	d.off += n
	return int(n), nil
}

// WriteCopy is the backward-compatible write(2): the application's bytes
// are copied into freshly allocated IO-Lite buffers, which then replace the
// cached range as IOL_write's would.
func (d *fileDesc) WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error) {
	m := d.m
	n := int64(len(src))
	a := core.PackBytes(p, m.FilePool, src) // PackBytes charges the copy
	m.FileCache.InvalidateOverlap(d.f.ID, d.off, n)
	m.FileCache.Insert(p, cache.Key{File: d.f.ID, Off: d.off, Len: n}, a)
	m.FS.WriteRange(d.f, d.off, src)
	a.Release()
	d.off += n
	return len(src), nil
}

func (d *fileDesc) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		off += d.off
	case io.SeekEnd:
		off += d.f.Size()
	default:
		return d.off, ErrNotSupported
	}
	if off < 0 {
		return d.off, ErrNotSupported
	}
	d.off = off
	return d.off, nil
}

func (d *fileDesc) Close(p *sim.Proc) error { return nil }
