// Package kernel assembles the substrates into a simulated machine and
// implements the two I/O API families of the paper: the IO-Lite API
// (IOL_read / IOL_write over the unified buffer and caching system, Fig. 2)
// and the backward-compatible POSIX API (read / write with copy semantics
// and mmap, §4.2, §6.1–6.2), over one descriptor layer that serves files,
// sockets, and pipes alike. A pipe is copy-mode (the conventional kernel
// byte FIFO) or reference-mode (IO-Lite's copy-free IPC, §4.4), fixed when
// Pipe2 creates it. The package also owns the pageout pressure chain that
// couples the VM system to the caches (§3.7).
package kernel

import (
	"iolite/internal/cache"
	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// Config sizes a machine.
type Config struct {
	// MemBytes is physical memory (the paper's server: 128 MB).
	MemBytes int64
	// KernelReserveBytes models kernel text/data, mbuf clusters, daemons
	// and other wired memory; it is never reclaimable. Default 48 MB
	// (FreeBSD-era kernels plus a busy server's wired set left roughly
	// 70-90 MB of a 128 MB machine for the file cache).
	KernelReserveBytes int64
	// Policy is the unified file cache's replacement policy; nil selects
	// the paper's default unified rule. Flash-Lite overrides with GDS
	// through IO-Lite's customization support (§3.7).
	Policy cache.Policy
	// ChecksumCache enables the cross-subsystem Internet checksum cache
	// (§3.9).
	ChecksumCache bool
	// HostName names the machine's network identity (default "server").
	// Multi-machine topologies — remote fcgi worker tiers — give each
	// machine its own name so resource traces stay readable.
	HostName string
	// Offload enables LSO/GRO-style segment offload on the machine's
	// network host: super-segment send charging, coalesced receive
	// events, and delayed acks (netsim.Host.SetOffload).
	Offload bool
}

// Machine is one simulated computer: CPU, memory, disk, file system, the
// IO-Lite subsystems, and a network identity.
type Machine struct {
	Eng   *sim.Engine
	Costs *sim.CostModel
	VM    *mem.VM
	Disk  *fsim.Disk
	FS    *fsim.FS

	// KernelDomain is the trusted kernel protection domain.
	KernelDomain *mem.Domain
	// FilePool is the kernel pool whose buffers back the unified file
	// cache.
	FilePool *core.Pool
	// FileCache is the unified IO-Lite file cache (§3.5).
	FileCache *cache.Cache
	// CkCache is the checksum cache; nil when disabled.
	CkCache *cksum.Cache
	// Mmaps is the baseline VM file cache used by mmap and by the POSIX
	// read path on conventional servers.
	Mmaps *MmapCache
	// Host is the machine's network identity; its CPU resource serializes
	// all kernel and application work on the machine.
	Host *netsim.Host
}

// NewMachine builds a machine per cfg.
func NewMachine(eng *sim.Engine, costs *sim.CostModel, cfg Config) *Machine {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 128 << 20
	}
	if cfg.KernelReserveBytes == 0 {
		cfg.KernelReserveBytes = 48 << 20
	}
	if cfg.Policy == nil {
		cfg.Policy = cache.NewUnified()
	}
	if cfg.HostName == "" {
		cfg.HostName = "server"
	}
	m := &Machine{Eng: eng, Costs: costs}
	m.VM = mem.NewVM(eng, costs, cfg.MemBytes)
	m.VM.Reserve(mem.TagKernel, mem.PagesFor(int(cfg.KernelReserveBytes)))
	m.Disk = fsim.NewDisk(eng, costs)
	m.FS = fsim.NewFS(eng, costs, m.VM, m.Disk)
	m.KernelDomain = m.VM.NewDomain("kernel", true)
	m.FilePool = core.NewPool(m.VM, m.KernelDomain, "filecache")
	m.FileCache = cache.New(eng, costs, cfg.Policy)
	if cfg.ChecksumCache {
		m.CkCache = cksum.NewCache(0)
	}
	m.Mmaps = newMmapCache(m)
	m.Host = netsim.NewHost(eng, costs, cfg.HostName, true, m.VM, m.CkCache)
	if cfg.Offload {
		m.Host.SetOffload(true)
	}

	// The pageout pressure chain (§3.7): reclaim file-cache memory first
	// from whichever cache is populated, then return recycled pool pages.
	m.VM.AddPressureHandler(func(need int) int {
		freed := 0
		for freed < need {
			evicted := m.FileCache.EvictOne()
			if evicted == 0 {
				break
			}
			freed += m.FilePool.Trim(need - freed)
		}
		// Eviction drops the cache's references; buffers whose other
		// references have drained sit recycled in the pool — return them.
		freed += m.FilePool.Trim(need - freed)
		return freed
	})
	m.VM.AddPressureHandler(func(need int) int {
		return m.Mmaps.reclaim(need)
	})
	return m
}

// CPU returns the machine's CPU resource.
func (m *Machine) CPU() *sim.Resource { return m.Host.CPU() }

// ResetMeters zeroes every meter the machine carries — CPU and disk
// utilization, file/mmap/checksum cache hit counters, and the host's
// network stats — so one obs.ResetSet entry covers a whole machine at a
// measurement boundary. Cache contents are untouched.
func (m *Machine) ResetMeters() {
	m.CPU().ResetMeters()
	m.Disk.ResetMeters()
	m.FileCache.ResetMeters()
	m.Mmaps.ResetMeters()
	if m.CkCache != nil {
		m.CkCache.ResetMeters()
	}
	m.Host.ResetMeters()
}

// syscall charges one system-call entry/exit and counts it on the cost
// model's syscall meter. A nil p (setup or prewarm context, outside
// measurement) charges nothing.
func (m *Machine) syscall(p *sim.Proc) {
	if p == nil {
		return
	}
	m.Host.Use(p, m.Costs.MeterSyscall())
}

// Process is one user protection domain with its default IO-Lite allocation
// pool. Creating a process reserves its private memory under TagProc.
type Process struct {
	M      *Machine
	Name   string
	Domain *mem.Domain
	// Pool is the process's default buffer pool; its ACL is the process
	// plus the kernel (§3.10: "the server process and every CGI
	// application instance have separate buffer pools with different
	// ACLs").
	Pool     *core.Pool
	memPages int

	// fds is the process's open-file table, indexed by descriptor. See
	// desc.go. Every fd below lowFree is open.
	fds     []Desc
	lowFree int
}

// NewProcess creates a process with memBytes of private (non-IO) memory.
func (m *Machine) NewProcess(name string, memBytes int) *Process {
	pr := &Process{
		M:        m,
		Name:     name,
		Domain:   m.VM.NewDomain(name, false),
		memPages: mem.PagesFor(memBytes),
	}
	pr.Pool = core.NewPool(m.VM, pr.Domain, name)
	m.VM.Reserve(mem.TagProc, pr.memPages)
	return pr
}

// Exit releases the process's private memory.
func (pr *Process) Exit() {
	pr.M.VM.Release(mem.TagProc, pr.memPages)
	pr.memPages = 0
}

// Fork charges process-creation cost (the CGI 1.1 model pays this per
// request; FastCGI amortizes it, §5.3).
func (m *Machine) Fork(p *sim.Proc) {
	m.Host.Use(p, m.Costs.Fork)
}
