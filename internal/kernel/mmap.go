package kernel

import (
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// MmapCache is the conventional VM file cache backing memory-mapped files.
// Flash and Apache read static files through it (§5: both use mmap); it is
// also what IO-Lite's own mmap compatibility interface (§3.8) serves from.
// Entries are whole files, resident or not, with LRU replacement driven by
// the machine's memory-pressure chain.
type MmapCache struct {
	m       *Machine
	entries map[fsim.FileID]*MmapEntry
	head    *MmapEntry // most recently used
	tail    *MmapEntry

	hits, misses int64
}

// MmapEntry is one resident file.
type MmapEntry struct {
	file  *fsim.File
	data  []byte
	pages int

	mapped map[*mem.Domain]bool

	prev, next *MmapEntry
}

func newMmapCache(m *Machine) *MmapCache {
	return &MmapCache{m: m, entries: make(map[fsim.FileID]*MmapEntry)}
}

func (mc *MmapCache) pushFront(e *MmapEntry) {
	e.prev = nil
	e.next = mc.head
	if mc.head != nil {
		mc.head.prev = e
	}
	mc.head = e
	if mc.tail == nil {
		mc.tail = e
	}
}

func (mc *MmapCache) unlink(e *MmapEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		mc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		mc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats reports hit/miss counts.
func (mc *MmapCache) Stats() (hits, misses int64) { return mc.hits, mc.misses }

// ResetMeters zeroes the hit/miss counters (mappings stay).
func (mc *MmapCache) ResetMeters() { mc.hits, mc.misses = 0, 0 }

// reclaim evicts least-recently-used files until need pages are freed.
func (mc *MmapCache) reclaim(need int) int {
	freed := 0
	for freed < need && mc.tail != nil {
		e := mc.tail
		mc.unlink(e)
		delete(mc.entries, e.file.ID)
		mc.m.VM.Release(mem.TagMmap, e.pages)
		freed += e.pages
	}
	return freed
}

// Mapping is a process's contiguous read-only view of a file (mmap).
type Mapping struct {
	entry *MmapEntry
}

// Mmap maps file f into pr's address space (§6.2): the data becomes
// reachable without per-read copies. A cold file costs the disk read plus
// residency; each domain's first mapping of a resident file costs the
// per-page map operations.
func (m *Machine) Mmap(p *sim.Proc, pr *Process, f *fsim.File) *Mapping {
	m.syscall(p)
	mc := m.Mmaps
	e, ok := mc.entries[f.ID]
	if !ok {
		mc.misses++
		pages := mem.PagesFor(int(f.Size()))
		m.VM.Reserve(mem.TagMmap, pages)
		data := make([]byte, f.Size())
		m.FS.ReadRange(p, f, 0, data) // disk time; DMA fills pages
		e = &MmapEntry{file: f, data: data, pages: pages, mapped: make(map[*mem.Domain]bool)}
		mc.entries[f.ID] = e
		mc.pushFront(e)
	} else {
		mc.hits++
		mc.unlink(e)
		mc.pushFront(e)
	}
	if !e.mapped[pr.Domain] {
		e.mapped[pr.Domain] = true
		m.Host.Use(p, sim.Duration(e.pages)*m.Costs.PageMap)
	}
	return &Mapping{entry: e}
}

// Bytes returns the mapped view of [off, off+n) — no copy, no charge; that
// is the point of mmap. The returned slice must be treated as read-only.
func (mp *Mapping) Bytes(off, n int64) []byte {
	return mp.entry.data[off : off+n : off+n]
}

// Resident reports whether the file is still in the VM file cache.
func (mc *MmapCache) Resident(id fsim.FileID) bool {
	_, ok := mc.entries[id]
	return ok
}
