package mem

import (
	"fmt"

	"iolite/internal/sim"
)

// Domain is a protection domain: the kernel or one user process. IO-Lite
// ensures access control at process granularity (§3.3); each domain has its
// own view of the IO-Lite window, recorded per 64 KB chunk.
type Domain struct {
	vm      *VM
	id      int
	name    string
	trusted bool // the kernel honors immutability; write toggling is skipped (§3.2)
}

// NewDomain creates a protection domain. trusted marks the kernel (and any
// other entity trusted to honor buffer immutability), for which temporary
// write-permission toggling is unnecessary.
func (vm *VM) NewDomain(name string, trusted bool) *Domain {
	d := &Domain{vm: vm, id: len(vm.domains), name: name, trusted: trusted}
	vm.domains = append(vm.domains, d)
	return d
}

// Name returns the diagnostic name.
func (d *Domain) Name() string { return d.name }

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
// The sim.CostModel's ChunkMap cost is charged to proc (which may be nil for
// setup-time allocation that should not be timed).
func (vm *VM) AllocChunk(p *sim.Proc, owner *Domain) *Chunk {
	c, cost := vm.AllocChunkQuiet(owner)
	if p != nil {
		p.Sleep(cost)
	}
	return c
}

// AllocChunkQuiet is AllocChunk without yielding: it mutates all state
// atomically (from the cooperative scheduler's point of view) and returns
// the cost for the caller to charge once its own bookkeeping is consistent.
func (vm *VM) AllocChunkQuiet(owner *Domain) (*Chunk, sim.Duration) {
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

// ID returns the chunk's window index.
func (c *Chunk) ID() int { return c.id }

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

// GrantWrite gives the producer domain temporary write permission so it can
// fill buffers in the chunk. For trusted domains the permission is permanent
// and free after the first grant; for untrusted producers each re-grant
// charges the write-toggle cost (§3.2).
func (c *Chunk) GrantWrite(p *sim.Proc, d *Domain) {
	cost := c.GrantWriteQuiet(d)
	if p != nil {
		p.Sleep(cost)
	}
}

// GrantWriteQuiet is GrantWrite without yielding; it returns the cost to
// charge.
func (c *Chunk) GrantWriteQuiet(d *Domain) sim.Duration {
	if c.perms[d] == PermReadWrite {
		return 0
	}
	already := c.perms[d]
	c.perms[d] = PermReadWrite
	if already == PermNone {
		return c.vm.costs.ChunkMap
	}
	if !d.trusted {
		return c.vm.costs.WriteToggle
	}
	return 0
}

// RevokeWrite drops d back to read-only after it has filled a buffer. For
// trusted domains this is a no-op (permanent write permission, §3.2).
func (c *Chunk) RevokeWrite(p *sim.Proc, d *Domain) {
	if d.trusted || c.perms[d] != PermReadWrite {
		return
	}
	c.perms[d] = PermRead
	if p != nil {
		p.Sleep(c.vm.costs.WriteToggle)
	}
}

// CheckRead panics unless d may read the chunk. The simulated kernel calls
// this wherever real hardware would fault, turning protection violations
// into immediate test failures.
func (c *Chunk) CheckRead(d *Domain) {
	if c.perms[d] < PermRead {
		panic(fmt.Sprintf("mem: domain %q read-faults on chunk %d", d.name, c.id))
	}
}

// CheckWrite panics unless d may write the chunk.
func (c *Chunk) CheckWrite(d *Domain) {
	if c.perms[d] < PermReadWrite {
		panic(fmt.Sprintf("mem: domain %q write-faults on chunk %d", d.name, c.id))
	}
}
