// Package mem models the virtual-memory substrate that IO-Lite is built on:
// physical frame accounting with per-purpose tags, protection domains, and
// 64 KB chunks of the IO-Lite window with shared access-control lists
// (paper §3.3, §4.3, §4.5).
//
// Page contents live in per-buffer Go slices (see internal/core); this
// package is the accounting and cost-charging overlay: who may touch which
// chunk, how many frames each subsystem occupies, and when the pageout
// mechanism must reclaim memory. DESIGN.md §5 records this substitution.
package mem

import (
	"fmt"

	"iolite/internal/sim"
)

// Page and chunk geometry (§4.5: chunks are 64 KB).
const (
	PageSize      = 4096
	PagesPerChunk = 16
	ChunkSize     = PageSize * PagesPerChunk
)

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}

// Perm is a protection-domain's access right to a chunk.
type Perm uint8

// Access rights, in increasing order of privilege.
const (
	PermNone Perm = iota
	PermRead
	PermReadWrite
)

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRead:
		return "r"
	case PermReadWrite:
		return "rw"
	}
	return fmt.Sprintf("perm(%d)", uint8(p))
}

// Tag labels a frame reservation with the subsystem it belongs to, so the
// experiments can report memory breakdowns (file cache vs. socket buffers
// vs. process memory — the heart of the Figure 12 WAN experiment).
type Tag string

// Well-known reservation tags.
const (
	TagIOLite   Tag = "iolite"   // IO-Lite window buffers (unified cache + in-flight data)
	TagSockBuf  Tag = "sockbuf"  // copied socket send/receive buffers (baseline path)
	TagMbuf     Tag = "mbuf"     // mbuf headers and small inline data
	TagProc     Tag = "proc"     // per-process overhead (Apache model)
	TagApp      Tag = "app"      // application private buffers
	TagMmap     Tag = "mmap"     // memory-mapped file cache pages (Flash/Apache file cache)
	TagMetadata Tag = "metadata" // "old" buffer cache holding FS metadata (§4.2)
	TagKernel   Tag = "kernel"   // fixed kernel text/data reserve
)

// PressureHandler is invoked when a reservation would exhaust free frames.
// It should free at least needPages pages if it can and return how many
// pages it actually freed. Handlers run in registration order until the
// demand is met.
type PressureHandler func(needPages int) (freed int)

// VM is the machine-wide memory manager.
type VM struct {
	eng   *sim.Engine
	costs *sim.CostModel

	totalPages int
	freePages  int
	byTag      map[Tag]int

	handlers []PressureHandler

	nextChunk int

	// Statistics.
	overcommit   int   // pages granted beyond physical memory (model strain)
	pressureRuns int64 // times the pageout mechanism ran
}

// NewVM creates a memory manager for a machine with totalBytes of physical
// memory.
func NewVM(eng *sim.Engine, costs *sim.CostModel, totalBytes int64) *VM {
	pages := int(totalBytes / PageSize)
	return &VM{
		eng:        eng,
		costs:      costs,
		totalPages: pages,
		freePages:  pages,
		byTag:      make(map[Tag]int),
	}
}

// Costs returns the machine cost model.
func (vm *VM) Costs() *sim.CostModel { return vm.costs }

// TotalPages reports physical memory size in pages.
func (vm *VM) TotalPages() int { return vm.totalPages }

// FreePages reports currently unreserved pages.
func (vm *VM) FreePages() int { return vm.freePages }

// UsedBy reports pages reserved under tag.
func (vm *VM) UsedBy(tag Tag) int { return vm.byTag[tag] }

// Overcommitted reports pages granted beyond physical memory. A non-zero
// value means pressure handlers could not reclaim enough; experiments assert
// it stays zero.
func (vm *VM) Overcommitted() int { return vm.overcommit }

// PressureRuns reports how many times reclamation ran.
func (vm *VM) PressureRuns() int64 { return vm.pressureRuns }

// AddPressureHandler registers h at the end of the reclamation chain.
func (vm *VM) AddPressureHandler(h PressureHandler) {
	vm.handlers = append(vm.handlers, h)
}

// Reserve claims pages under tag, running the reclamation chain if free
// memory is short. It never blocks: if reclamation cannot free enough, the
// deficit is recorded as overcommit.
func (vm *VM) Reserve(tag Tag, pages int) {
	if pages < 0 {
		panic("mem: negative reservation")
	}
	if vm.freePages < pages {
		vm.reclaim(pages)
	}
	if vm.freePages < pages {
		vm.overcommit += pages - vm.freePages
		vm.freePages = 0
	} else {
		vm.freePages -= pages
	}
	vm.byTag[tag] += pages
}

// Release returns pages reserved under tag.
func (vm *VM) Release(tag Tag, pages int) {
	if pages < 0 {
		panic("mem: negative release")
	}
	if vm.byTag[tag] < pages {
		panic(fmt.Sprintf("mem: releasing %d pages from tag %q holding %d", pages, tag, vm.byTag[tag]))
	}
	vm.byTag[tag] -= pages
	// Repay overcommit debt before growing the free list.
	if vm.overcommit > 0 {
		repay := pages
		if repay > vm.overcommit {
			repay = vm.overcommit
		}
		vm.overcommit -= repay
		pages -= repay
	}
	vm.freePages += pages
}

// reclaim runs the handler chain until at least target pages are free or the
// chain is exhausted. Frames freed by handlers arrive via Release, so the
// loop re-checks freePages after each handler.
func (vm *VM) reclaim(target int) {
	vm.pressureRuns++
	for _, h := range vm.handlers {
		deficit := target - vm.freePages
		if deficit <= 0 {
			return
		}
		h(deficit)
	}
}
