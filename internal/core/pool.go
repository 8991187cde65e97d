package core

import (
	"fmt"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Pool is an IO-Lite allocation pool: a set of cached buffers with a common
// access-control list (§3.3). The choice of pool determines which protection
// domains may (come to) read the data placed in its buffers. Programs
// determine the ACL of a data object before storing it in memory — that is
// the rule that makes copy-free operation possible.
//
// Deallocated buffers stay cached in the pool with their cross-domain
// mappings intact (§3.2), so steady-state allocation avoids all VM work.
type Pool struct {
	vm    *mem.VM
	owner *mem.Domain
	name  string

	// freeBySize caches recycled buffers keyed by page count.
	freeBySize map[int][]*Buffer

	// pack is the current open buffer used to pack small data objects of
	// the same ACL onto shared pages (§3.3).
	pack *Buffer

	// curChunk is the open chunk that sub-chunk buffers are carved from, so
	// a 1-page buffer costs 1 page, not a whole chunk.
	curChunk *mem.Chunk
	curUsed  int

	// carved and trimmed track, per shared chunk, how many pages have been
	// carved into buffers and how many of those buffers Trim has dropped;
	// when every carved page of a chunk is trimmed the whole chunk returns
	// to the VM.
	carved  map[*mem.Chunk]int
	trimmed map[*mem.Chunk]int

	allocs    int64
	recycles  int64
	coldHits  int64
	liveBufs  int64
	livePages int64
}

// NewPool creates a pool owned by (and initially writable in) domain owner.
func NewPool(vm *mem.VM, owner *mem.Domain, name string) *Pool {
	return &Pool{
		vm:         vm,
		owner:      owner,
		name:       name,
		freeBySize: make(map[int][]*Buffer),
		carved:     make(map[*mem.Chunk]int),
		trimmed:    make(map[*mem.Chunk]int),
	}
}

// Alloc returns a writable buffer of at least n bytes (rounded up to whole
// pages) with one reference held by the caller. The fast path reuses a
// recycled buffer (generation bumped; the owner's write mapping persists);
// the cold path allocates fresh chunk-backed pages and pays the VM mapping
// costs (§3.2 "worst-case cross-domain transfer overhead is that of page
// remapping").
func (pl *Pool) Alloc(p *sim.Proc, n int) *Buffer {
	b, cost := pl.alloc(n)
	if p != nil {
		p.Sleep(cost)
	}
	return b
}

// alloc performs an allocation without yielding: every pool and VM
// state mutation happens atomically with respect to the cooperative
// scheduler, and the accumulated CPU cost is returned for the caller to
// charge afterwards. Charging mid-mutation would let a concurrent process
// observe (and corrupt) half-updated pool state.
func (pl *Pool) alloc(n int) (*Buffer, sim.Duration) {
	if n <= 0 {
		panic("core: Alloc of non-positive size")
	}
	pages := mem.PagesFor(n)
	if pages > mem.PagesPerChunk {
		pages = ((pages + mem.PagesPerChunk - 1) / mem.PagesPerChunk) * mem.PagesPerChunk
	}
	pl.allocs++
	if free := pl.freeBySize[pages]; len(free) > 0 {
		b := free[len(free)-1]
		pl.freeBySize[pages] = free[:len(free)-1]
		pl.recycles++
		b.free = false
		b.sealed = false
		b.packMode = false
		b.packed = 0
		b.gen++
		b.refs = 1
		cost := pl.vm.Costs().BufAlloc
		pl.liveBufs++
		pl.livePages += int64(b.Pages())
		return b, cost
	}
	return pl.allocCold(pages)
}

// allocCold carves a brand-new buffer out of the pool's open chunk (for
// sub-chunk sizes) or out of fresh dedicated chunks (for chunk multiples).
func (pl *Pool) allocCold(pages int) (*Buffer, sim.Duration) {
	pl.coldHits++
	var cost sim.Duration
	var chunk *mem.Chunk
	ownsChunks := 0
	if pages >= mem.PagesPerChunk {
		ownsChunks = pages / mem.PagesPerChunk
		for i := 0; i < ownsChunks; i++ {
			c, d := pl.vm.AllocChunk(pl.owner)
			cost += d
			if chunk == nil {
				chunk = c
			}
		}
	} else {
		if pl.curChunk == nil || pl.curUsed+pages > mem.PagesPerChunk {
			c, d := pl.vm.AllocChunk(pl.owner)
			cost += d
			pl.curChunk = c
			pl.curUsed = 0
		}
		chunk = pl.curChunk
		pl.curUsed += pages
		pl.carved[chunk] += pages
	}
	cost += pl.vm.Costs().BufAllocCold
	b := &Buffer{
		pool:       pl,
		chunk:      chunk,
		ownsChunks: ownsChunks,
		data:       make([]byte, pages*mem.PageSize),
		refs:       1,
		gen:        1,
	}
	pl.liveBufs++
	pl.livePages += int64(b.Pages())
	return b, cost
}

// Pack copies src into the pool's current open packing buffer and returns a
// slice for it, with one reference held by the caller. Packing lets many
// small data objects with the same ACL share pages so that sub-page objects
// do not waste memory (§3.3). The packed range becomes immutable as soon as
// Pack returns.
func (pl *Pool) Pack(p *sim.Proc, src []byte) Slice {
	if len(src) == 0 {
		panic("core: Pack of empty object")
	}
	if len(src) > mem.ChunkSize {
		panic("core: Pack object exceeds one chunk; use Alloc")
	}
	var cost sim.Duration
	if pl.pack == nil || pl.pack.packed+len(src) > pl.pack.Cap() {
		// Roll over to a fresh open buffer. All state changes (replace
		// pl.pack, drop the pool's reference to the old buffer) happen
		// before any yield, so a concurrent Pack never observes the stale
		// full buffer and double-releases it.
		old := pl.pack
		b, d := pl.alloc(mem.ChunkSize)
		cost += d
		b.packMode = true // stray Write calls are rejected
		pl.pack = b
		if old != nil {
			old.Release() // the pool's own reference to the old open buffer
		}
	}
	b := pl.pack
	off := b.packed
	copy(b.data[off:], src)
	b.packed += len(src)
	b.Retain()
	if p != nil && cost > 0 {
		p.Sleep(cost)
	}
	return Slice{Buf: b, Off: off, Len: len(src)}
}

// recycle accepts a buffer whose last reference was dropped.
func (pl *Pool) recycle(b *Buffer) {
	if b.free {
		panic("core: double recycle")
	}
	b.free = true
	pl.liveBufs--
	pl.livePages -= int64(b.Pages())
	pl.freeBySize[b.Pages()] = append(pl.freeBySize[b.Pages()], b)
}

// Trim releases up to maxPages pages of recycled buffers back to the VM.
// Buffers owning whole chunks free immediately; sub-chunk buffers are
// dropped and their pages credited against their shared chunk, which
// returns to the VM once every carved page has been dropped. The pageout
// path uses Trim to shed pool memory under pressure. It returns the number
// of pages actually released to the VM.
func (pl *Pool) Trim(maxPages int) int {
	released := 0
	for size, free := range pl.freeBySize {
		kept := free[:0]
		for _, b := range free {
			switch {
			case released >= maxPages:
				kept = append(kept, b)
			case b.ownsChunks > 0:
				b.chunk.Free()
				for i := 1; i < b.ownsChunks; i++ {
					pl.vm.Release(mem.TagIOLite, mem.PagesPerChunk)
				}
				released += b.Pages()
				b.data = nil
			default:
				pl.trimmed[b.chunk] += b.Pages()
				b.data = nil
				if b.chunk != pl.curChunk && pl.trimmed[b.chunk] == pl.carved[b.chunk] {
					b.chunk.Free()
					released += mem.PagesPerChunk
					delete(pl.trimmed, b.chunk)
					delete(pl.carved, b.chunk)
				}
			}
		}
		pl.freeBySize[size] = kept
	}
	return released
}

// LivePages reports pages in buffers that currently hold references.
func (pl *Pool) LivePages() int { return int(pl.livePages) }

// Stats reports allocation counters: total allocations, recycled-buffer
// hits, and cold (fresh-chunk) allocations.
func (pl *Pool) Stats() (allocs, recycles, cold int64) {
	return pl.allocs, pl.recycles, pl.coldHits
}

func (pl *Pool) String() string {
	return fmt.Sprintf("pool(%s)", pl.name)
}
