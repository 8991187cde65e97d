// Package iolite is the public face of this IO-Lite reproduction: a unified
// I/O buffering and caching system (Pai, Druschel, Zwaenepoel; OSDI '99 /
// TOCS 18(1)) built on a deterministic simulated operating system.
//
// The paper's primary contribution — immutable I/O buffers shared by
// reference through mutable buffer aggregates, a unified file cache, an
// IOL_read/IOL_write API, cross-subsystem optimizations like checksum
// caching — lives in the core packages re-exported here. A System bundles a
// complete simulated machine: virtual memory with protection domains, a
// disk and file system, the unified cache, a TCP-like network stack with a
// zero-copy send path, and copy-free IPC.
//
// I/O goes through per-process integer file descriptors, exactly as the
// paper's Fig. 2 presents it: one IOL_read/IOL_write pair (and the
// copy-based POSIX read/write) works identically on regular files, pipes,
// and network sockets.
//
// Quick start:
//
//	sys := iolite.NewSystem(iolite.SystemConfig{})
//	sys.FS.Create("/hello", 4096)
//	proc := sys.NewProcess("app", 1<<20)
//	sys.Run(func(p *iolite.Proc) {
//	    fd, _ := sys.Open(p, proc, "/hello")
//	    agg, _ := sys.IOLRead(p, proc, fd, 4096) // zero-copy cached read
//	    defer agg.Release()
//	    _ = agg.Materialize()
//	    sys.Close(p, proc, fd)
//	})
//
// See examples/ for realistic scenarios (a web server, a CGI pipeline, the
// converted UNIX tools) and internal/experiments for the reproduction of
// every figure in the paper's evaluation.
package iolite

import (
	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/kernel"
	"iolite/internal/sim"
)

// Re-exported core types: the buffer aggregate ADT of §3.1/§3.4 and the
// descriptor surface.
type (
	// Agg is a mutable buffer aggregate over immutable IO-Lite buffers.
	Agg = core.Agg
	// Buffer is an immutable, refcounted, generation-numbered I/O buffer.
	Buffer = core.Buffer
	// Slice is a ⟨buffer, offset, length⟩ tuple.
	Slice = core.Slice
	// Pool is an access-controlled buffer allocation pool.
	Pool = core.Pool
	// Proc is a simulated process context.
	Proc = sim.Proc
	// Process is a protection domain with its default pool and its file
	// descriptor table.
	Process = kernel.Process
	// File is a file in the simulated file system.
	File = fsim.File
	// Desc is the vnode-style descriptor interface behind every fd. To
	// add a descriptor kind, implement Close plus the capabilities the
	// kind supports (ReadAgg/ReadCopy, WriteAgg/WriteCopy, Seek, and the
	// splice and readiness methods) and Process.Install it; a call the
	// kind lacks returns ErrNotSupported.
	Desc = kernel.Desc
)

// MaxIO is a read/splice length that exceeds any queued data: "everything
// one call can yield".
const MaxIO = kernel.MaxIO

// Descriptor-layer errors. End of stream is io.EOF.
var (
	ErrBadFD        = kernel.ErrBadFD
	ErrClosed       = kernel.ErrClosed
	ErrNotSupported = kernel.ErrNotSupported
	ErrNotExist     = kernel.ErrNotExist
)

// PipeStats reports the pipe behind a pipe descriptor's bytes moved,
// bytes physically copied (0 on a reference-mode pipe), and blocking
// context switches. ok is false when d is not a pipe end.
func PipeStats(d Desc) (moved, copied, switches int64, ok bool) { return kernel.PipeStats(d) }

// NewAggDesc wraps a sealed aggregate as an object descriptor whose one
// capability is the splice source: install it with Process.Install and
// serve it with the splice fast path.
// System.SpliceAt moves sealed buffer references from files and objects,
// read at an explicit offset, to reference-mode sockets and pipes entirely
// in-kernel, with zero copy charge.
func (s *System) NewAggDesc(a *Agg) Desc { return kernel.NewAggDesc(a) }

// SystemConfig sizes a simulated machine.
type SystemConfig struct {
	// MemBytes is physical memory; 0 selects the paper's 128 MB.
	MemBytes int64
	// CachePolicy selects the unified file cache replacement policy:
	// "unified" (default, the paper's §3.7 rule), "LRU", or "GDS".
	CachePolicy string
	// ChecksumCache enables the cross-subsystem Internet checksum cache.
	ChecksumCache bool
}

// System is a complete simulated machine running IO-Lite.
type System struct {
	*kernel.Machine
}

// NewSystem builds a machine.
func NewSystem(cfg SystemConfig) *System {
	eng := sim.New()
	kcfg := kernel.Config{
		MemBytes:      cfg.MemBytes,
		ChecksumCache: cfg.ChecksumCache,
	}
	switch cfg.CachePolicy {
	case "", "unified":
		kcfg.Policy = cache.NewUnified()
	case "LRU", "lru":
		kcfg.Policy = cache.NewLRU()
	case "GDS", "gds":
		kcfg.Policy = cache.NewGDS()
	default:
		panic("iolite: unknown cache policy " + cfg.CachePolicy)
	}
	return &System{Machine: kernel.NewMachine(eng, sim.DefaultCosts(), kcfg)}
}

// Run executes body as a simulated process and drives the machine until all
// simulated activity completes.
func (s *System) Run(body func(p *Proc)) {
	s.Eng.Go("main", body)
	s.Eng.Run()
}

// Go starts an additional simulated process (for producer/consumer
// scenarios); call Run (or s.Eng.Run) to drive everything.
func (s *System) Go(name string, body func(p *Proc)) {
	s.Eng.Go(name, body)
}
