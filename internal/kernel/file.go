package kernel

import (
	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// readExtent brings [off, off+n) of f (clipped at end of file) into sealed
// IO-Lite buffers from pool with one sequential disk read. Data lands in
// page-aligned chunk-sized buffers; the disk DMA engine fills them, so no
// CPU copy is charged. The unified cache loads through the kernel file
// pool; a descriptor opened with a private pool (§3.4) reads into that
// pool instead, whose ACL then governs the data.
func (m *Machine) readExtent(p *sim.Proc, pool *core.Pool, f *fsim.File, off, n int64) *core.Agg {
	if off+n > f.Size() {
		n = f.Size() - off
	}
	if n <= 0 {
		return core.NewAgg()
	}
	content := make([]byte, n)
	m.FS.ReadRange(p, f, off, content) // one positioning + sequential transfer
	a := core.NewAgg()
	for got := int64(0); got < n; {
		take := int64(mem.ChunkSize)
		if take > n-got {
			take = n - got
		}
		b := pool.Alloc(p, int(take))
		b.Write(0, content[got:got+take])
		b.Seal()
		a.Append(core.Slice{Buf: b, Off: 0, Len: int(take)}) // aggregate retains
		b.Release()                                          // drop the allocation reference
		got += take
	}
	return a
}

// readCached returns a caller-owned aggregate for [off, off+n) of f served
// through the unified cache — the kernel-internal half of IOL_read, with no
// user-domain grant and no per-slice boundary work. The splice path uses it
// directly; a file descriptor's IOL_read (fileDesc.ReadAggAt) layers the
// user-facing costs on top, and its POSIX read copies out of it.
func (m *Machine) readCached(p *sim.Proc, f *fsim.File, off, n int64) *core.Agg {
	if off+n > f.Size() {
		n = f.Size() - off
	}
	if n <= 0 {
		return core.NewAgg()
	}
	k := cache.Key{File: f.ID, Off: off, Len: n}
	a := m.FileCache.Lookup(p, k)
	if a == nil {
		a = m.readExtent(p, m.FilePool, f, off, n)
		m.FileCache.Insert(p, k, a)
	}
	return a
}

// PrewarmUnified loads files into the unified file cache without charging
// simulated time, stopping when free memory falls below keepFreePages.
// Experiments use it to start measurement from the steady state a long
// warmup would reach (the paper measures one-hour runs; the cache contents
// at steady state are the most popular documents).
func (m *Machine) PrewarmUnified(files []*fsim.File, keepFreePages int) int {
	loaded := 0
	for _, f := range files {
		if m.VM.FreePages() < keepFreePages+mem.PagesFor(int(f.Size())) {
			break
		}
		k := cache.Key{File: f.ID, Off: 0, Len: f.Size()}
		if m.FileCache.Contains(k) {
			continue
		}
		a := m.readExtent(nil, m.FilePool, f, 0, f.Size())
		m.FileCache.Insert(nil, k, a)
		a.Release()
		loaded++
	}
	return loaded
}

// PrewarmMmap is PrewarmUnified for the conventional VM file cache that
// mmap-based servers (Flash, Apache) serve from.
func (m *Machine) PrewarmMmap(pr *Process, files []*fsim.File, keepFreePages int) int {
	loaded := 0
	for _, f := range files {
		if m.VM.FreePages() < keepFreePages+mem.PagesFor(int(f.Size())) {
			break
		}
		if m.Mmaps.Resident(f.ID) {
			continue
		}
		m.prewarmMmapFile(pr, f)
		loaded++
	}
	return loaded
}

// prewarmMmapFile loads one file resident without charging time.
func (m *Machine) prewarmMmapFile(pr *Process, f *fsim.File) {
	mc := m.Mmaps
	pages := mem.PagesFor(int(f.Size()))
	m.VM.Reserve(mem.TagMmap, pages)
	data := make([]byte, f.Size())
	m.FS.ReadRange(nil, f, 0, data)
	e := &MmapEntry{file: f, data: data, pages: pages, mapped: map[*mem.Domain]bool{pr.Domain: true}}
	mc.entries[f.ID] = e
	mc.pushFront(e)
}
