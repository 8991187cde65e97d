package core

import (
	"testing"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Micro-benchmarks for the aggregate ADT itself (host-CPU cost of the
// simulator's data structures, not simulated time).

func benchPool() *Pool {
	e := sim.New()
	vm := mem.NewVM(e, sim.DefaultCosts(), 512<<20)
	k := vm.NewDomain("kernel", true)
	return NewPool(vm, k, "bench")
}

func BenchmarkPoolAllocRecycle(b *testing.B) {
	pl := benchPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := pl.Alloc(nil, mem.ChunkSize)
		buf.Seal()
		buf.Release()
	}
}

func BenchmarkPackSmallObjects(b *testing.B) {
	pl := benchPool()
	hdr := make([]byte, 64)
	b.ReportAllocs()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		s := pl.Pack(nil, hdr)
		s.Buf.Release()
	}
}

func BenchmarkAggRangeAndRelease(b *testing.B) {
	pl := benchPool()
	data := make([]byte, 256<<10)
	master := PackBytes(nil, pl, data)
	defer master.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := master.Range(1000, 128<<10)
		r.Release()
	}
}

func BenchmarkAggReadAt(b *testing.B) {
	pl := benchPool()
	data := make([]byte, 256<<10)
	master := PackBytes(nil, pl, data)
	defer master.Release()
	dst := make([]byte, 64<<10)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		master.ReadAt(dst, 4096)
	}
}

func BenchmarkAggConcatClone(b *testing.B) {
	pl := benchPool()
	hdr := PackBytes(nil, pl, make([]byte, 64))
	body := PackBytes(nil, pl, make([]byte, 128<<10))
	defer hdr.Release()
	defer body.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp := hdr.Clone()
		resp.Concat(body)
		resp.Release()
	}
}
