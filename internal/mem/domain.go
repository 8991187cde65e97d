package mem

import (
	"fmt"

	"iolite/internal/sim"
)

// Domain is a protection domain: the kernel or one user process. IO-Lite
// ensures access control at process granularity (§3.3); each domain has its
// own view of the IO-Lite window, recorded per 64 KB chunk.
type Domain struct {
	name string
}

// NewDomain creates a protection domain. trusted marks the kernel (and any
// other entity trusted to honor buffer immutability), for which §3.2's
// temporary write-permission toggling is unnecessary. Nothing models the
// toggle: a pool's chunks are born read-write for the pool's owner and stay
// that way, so trusted changes nothing today.
func (vm *VM) NewDomain(name string, trusted bool) *Domain {
	return &Domain{name: name}
}

// Chunk is a 64 KB region of the IO-Lite window. All pages of a chunk share
// identical access-control attributes (§4.5): in a given domain either every
// page of the chunk is accessible or none is.
type Chunk struct {
	vm    *VM
	id    int
	perms map[*Domain]Perm
	freed bool
}

// AllocChunk carves a fresh chunk out of the IO-Lite window, reserves its
// frames under TagIOLite, and maps it read-write in owner's address space.
// It does not yield: it mutates all state atomically (from the cooperative
// scheduler's point of view) and returns the sim.CostModel's ChunkMap cost
// for the caller to charge once its own bookkeeping is consistent.
func (vm *VM) AllocChunk(owner *Domain) (*Chunk, sim.Duration) {
	c := &Chunk{vm: vm, id: vm.nextChunk, perms: make(map[*Domain]Perm)}
	vm.nextChunk++
	vm.Reserve(TagIOLite, PagesPerChunk)
	c.perms[owner] = PermReadWrite
	return c, vm.costs.ChunkMap
}

// Free returns the chunk's frames to the system. Mappings persist
// conceptually (they are simply dropped here: a freed chunk is never
// referenced again).
func (c *Chunk) Free() {
	if c.freed {
		panic("mem: double free of chunk")
	}
	c.freed = true
	c.vm.Release(TagIOLite, PagesPerChunk)
}

// Perm reports d's current right to the chunk.
func (c *Chunk) Perm(d *Domain) Perm { return c.perms[d] }

// GrantRead makes the chunk readable in domain d, charging the map cost only
// if d had no mapping yet. Mappings persist after buffer deallocation
// (§3.2: "once the buffer is deallocated, these mappings persist"), which is
// what makes recycled buffers transfer at shared-memory speed. It reports
// whether a new mapping was established.
func (c *Chunk) GrantRead(p *sim.Proc, d *Domain) bool {
	if c.perms[d] >= PermRead {
		return false
	}
	c.perms[d] = PermRead
	if p != nil {
		p.Sleep(c.vm.costs.ChunkMap)
	}
	return true
}

// CheckRead panics unless d may read the chunk. The simulated kernel calls
// this wherever real hardware would fault, turning protection violations
// into immediate test failures.
func (c *Chunk) CheckRead(d *Domain) {
	if c.perms[d] < PermRead {
		panic(fmt.Sprintf("mem: domain %q read-faults on chunk %d", d.name, c.id))
	}
}
