package core

import (
	"bytes"
	"sync"
	"testing"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

// harness bundles the substrate most core tests need.
type harness struct {
	eng    *sim.Engine
	vm     *mem.VM
	kernel *mem.Domain
	app    *mem.Domain
	pool   *Pool
}

func newHarness() *harness {
	e := sim.New()
	vm := mem.NewVM(e, sim.DefaultCosts(), 64<<20)
	k := vm.NewDomain("kernel", true)
	app := vm.NewDomain("app", false)
	return &harness{eng: e, vm: vm, kernel: k, app: app, pool: NewPool(vm, k, "test")}
}

// run executes body as a simulated process and drains the engine.
func (h *harness) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	h.eng.Go("test", body)
	h.eng.Run()
	if h.eng.LiveProcs() != 0 {
		t.Fatalf("leaked %d simulated procs", h.eng.LiveProcs())
	}
}

func fill(b *Buffer, data []byte) {
	b.Write(0, data)
	b.Seal()
}

func pattern(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)*7 + seed
	}
	return d
}

// TestParallelSimulationsAllocate runs two independent simulations in
// parallel goroutines, as a test binary or benchmark program may: buffer
// allocation must be race-free (go test -race) and keep ids unique.
func TestParallelSimulationsAllocate(t *testing.T) {
	const sims, bufs = 2, 200
	ids := make([][]uint64, sims)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := newHarness()
			h.eng.Go("alloc", func(p *sim.Proc) {
				for range bufs {
					b := h.pool.Alloc(p, 100) // fresh: nothing is recycled
					ids[i] = append(ids[i], b.ID())
				}
			})
			h.eng.Run()
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, got := range ids {
		for _, id := range got {
			if seen[id] {
				t.Fatalf("buffer id %d handed out twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != sims*bufs {
		t.Fatalf("%d buffer ids, want %d", len(seen), sims*bufs)
	}
}

func TestBufferLifecycle(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, 100)
		if b.Cap() != mem.PageSize {
			t.Errorf("Cap = %d, want one page", b.Cap())
		}
		if b.Sealed() {
			t.Error("fresh buffer already sealed")
		}
		data := pattern(100, 1)
		fill(b, data)
		if got := b.Bytes(0, 100); !bytes.Equal(got, data) {
			t.Error("readback mismatch")
		}
		if b.Refs() != 1 {
			t.Errorf("Refs = %d, want 1", b.Refs())
		}
		gen := b.Gen()
		b.Release()

		// Reallocation must recycle with a bumped generation.
		b2 := h.pool.Alloc(p, 100)
		if b2 != b {
			t.Fatal("pool did not recycle the freed buffer")
		}
		if b2.Gen() != gen+1 {
			t.Errorf("gen = %d, want %d", b2.Gen(), gen+1)
		}
		if b2.Sealed() {
			t.Error("recycled buffer still sealed")
		}
		b2.Release()
	})
}

func TestImmutabilityEnforced(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, 10)
		fill(b, pattern(10, 0))
		defer b.Release()
		defer func() {
			if recover() == nil {
				t.Error("write to sealed buffer did not panic")
			}
		}()
		b.Write(0, []byte("x"))
	})
}

func TestReadOfUnsealedPanics(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, 10)
		defer b.Release()
		defer func() {
			if recover() == nil {
				t.Error("read of unsealed buffer did not panic")
			}
		}()
		b.Bytes(0, 5)
	})
}

func TestUseAfterFreePanics(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, 10)
		fill(b, pattern(10, 0))
		b.Release()
		defer func() {
			if recover() == nil {
				t.Error("read of freed buffer did not panic")
			}
		}()
		b.Bytes(0, 5)
	})
}

func TestRefcountUnderflowPanics(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, 10)
		fill(b, pattern(10, 0))
		b.Release()
		defer func() {
			if recover() == nil {
				t.Error("refcount underflow did not panic")
			}
		}()
		b.Release()
	})
}

func TestPackSharesPages(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		s1 := h.pool.Pack(p, []byte("hello "))
		s2 := h.pool.Pack(p, []byte("world"))
		if s1.Buf != s2.Buf {
			t.Error("small packed objects did not share a buffer")
		}
		if got := string(s1.Bytes()) + string(s2.Bytes()); got != "hello world" {
			t.Errorf("packed contents = %q", got)
		}
		// Packed data is immutable immediately.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("write to pack-mode buffer did not panic")
				}
			}()
			s1.Buf.Write(0, []byte("X"))
		}()
		s1.Buf.Release()
		s2.Buf.Release()
	})
}

func TestAllocSizesAndChunkCarving(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		before := h.vm.UsedBy(mem.TagIOLite)
		a := h.pool.Alloc(p, 1)             // 1 page, carved
		bb := h.pool.Alloc(p, mem.PageSize) // 1 page, carved from same chunk
		if a.Chunk() != bb.Chunk() {
			t.Error("small buffers did not share a chunk")
		}
		big := h.pool.Alloc(p, mem.ChunkSize+1) // rounds to 2 chunks
		if big.Pages() != 2*mem.PagesPerChunk {
			t.Errorf("big buffer pages = %d, want %d", big.Pages(), 2*mem.PagesPerChunk)
		}
		grew := h.vm.UsedBy(mem.TagIOLite) - before
		if grew != 3*mem.PagesPerChunk { // 1 shared chunk + 2 owned
			t.Errorf("IO-Lite pages grew by %d, want %d", grew, 3*mem.PagesPerChunk)
		}
		a.Release()
		bb.Release()
		big.Release()
	})
}

func TestPoolTrimFreesOwnedChunks(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		big := h.pool.Alloc(p, mem.ChunkSize)
		small := h.pool.Alloc(p, 1)
		big.Release()
		small.Release()
		before := h.vm.UsedBy(mem.TagIOLite)
		freed := h.pool.Trim(1 << 20)
		if freed != mem.PagesPerChunk {
			t.Errorf("Trim freed %d pages, want %d (only the owned chunk)", freed, mem.PagesPerChunk)
		}
		if before-h.vm.UsedBy(mem.TagIOLite) != mem.PagesPerChunk {
			t.Errorf("VM accounting did not shrink by one chunk")
		}
	})
}

func TestAggregateOps(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		d1 := pattern(5000, 1)
		d2 := pattern(3000, 2)
		a := PackBytes(p, h.pool, d1)
		b := PackBytes(p, h.pool, d2)

		a.Concat(b)
		b.Release()
		want := append(append([]byte{}, d1...), d2...)
		if !a.Equal(want) {
			t.Fatal("concat mismatch")
		}
		if a.Len() != 8000 {
			t.Fatalf("Len = %d", a.Len())
		}

		// Range is a zero-copy view.
		r := a.Range(4000, 2000)
		if !bytes.Equal(r.Materialize(), want[4000:6000]) {
			t.Error("Range mismatch")
		}
		r.Release()

		// Split.
		tail := a.Split(1000)
		if !a.Equal(want[:1000]) || !tail.Equal(want[1000:]) {
			t.Error("Split mismatch")
		}

		// DropFront across slice boundaries.
		tail.DropFront(4500)
		if !tail.Equal(want[5500:]) {
			t.Error("DropFront mismatch")
		}

		// Trunc releases dropped references.
		tail.Trunc(100)
		if !tail.Equal(want[5500:5600]) {
			t.Error("Trunc mismatch")
		}
		a.Release()
		tail.Release()
	})
}

func TestAggregatePrependHeader(t *testing.T) {
	// The web-server pattern: concatenate a freshly generated response
	// header with file data (§3.10).
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		body := PackBytes(p, h.pool, pattern(10000, 3))
		hdr := h.pool.Pack(p, []byte("HTTP/1.0 200 OK\r\n\r\n"))
		resp := body.Clone()
		resp.Prepend(hdr)
		hdr.Buf.Release() // aggregate holds its own ref now
		if resp.Len() != 10019 {
			t.Fatalf("Len = %d", resp.Len())
		}
		got := resp.Materialize()
		if string(got[:19]) != "HTTP/1.0 200 OK\r\n\r\n" {
			t.Error("header not at front")
		}
		// Body aggregate is untouched.
		if body.Len() != 10000 {
			t.Error("source aggregate mutated")
		}
		resp.Release()
		body.Release()
	})
}

func TestAggregateReleaseRecyclesBuffers(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a := PackBytes(p, h.pool, pattern(mem.ChunkSize*2, 4)) // two dedicated buffers
		live := h.pool.LivePages()
		if live == 0 {
			t.Fatal("no live pages after alloc")
		}
		c := a.Clone()
		a.Release()
		if h.pool.LivePages() != live {
			t.Error("pages freed while clone still references them")
		}
		c.Release()
		if h.pool.LivePages() != 0 {
			t.Errorf("LivePages = %d after all refs dropped", h.pool.LivePages())
		}
		// Allocating again must hit the recycle path.
		_, rec0, _ := h.pool.Stats()
		b := h.pool.Alloc(p, mem.ChunkSize)
		_, rec1, _ := h.pool.Stats()
		if rec1 != rec0+1 {
			t.Error("allocation after release did not recycle")
		}
		b.Release()
	})
}

func TestUseAfterAggregateReleasePanics(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a := PackBytes(p, h.pool, []byte("abc"))
		a.Release()
		defer func() {
			if recover() == nil {
				t.Error("use of released aggregate did not panic")
			}
		}()
		a.Range(0, 1)
	})
}

func TestTransferGrantsAndCaches(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a := PackBytes(p, h.pool, pattern(1000, 5))
		// Before transfer, app cannot read.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unauthorized read did not fault")
				}
			}()
			CheckReadable(a, h.app)
		}()

		t0 := p.Now()
		if n := Transfer(p, a, h.app); n != 1 {
			t.Errorf("first transfer mapped %d chunks, want 1", n)
		}
		if p.Now().Sub(t0) != h.vm.Costs().ChunkMap {
			t.Errorf("first transfer cost %v", p.Now().Sub(t0))
		}
		CheckReadable(a, h.app) // must not panic now

		// Second transfer of the same chunk is free (persistent mappings).
		t1 := p.Now()
		if n := Transfer(p, a, h.app); n != 0 {
			t.Errorf("repeat transfer mapped %d chunks, want 0", n)
		}
		if p.Now() != t1 {
			t.Error("repeat transfer charged time")
		}
		a.Release()
	})
}

func TestSnapshotSurvivesReplacement(t *testing.T) {
	// §3.5: buffers replaced in the cache persist while referenced,
	// preserving IOL_read snapshot semantics. Here: reader holds an
	// aggregate; the buffer is "replaced" (released elsewhere); contents
	// must remain intact until the reader drops its reference.
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		data := pattern(8192, 6)
		orig := PackBytes(p, h.pool, data)
		snapshot := orig.Clone()
		orig.Release() // cache replaced the entry

		if !snapshot.Equal(data) {
			t.Error("snapshot corrupted after original release")
		}
		// New allocations must NOT reuse the still-referenced buffer.
		nb := h.pool.Alloc(p, 8192)
		nb.Write(0, pattern(8192, 7))
		nb.Seal()
		if !snapshot.Equal(data) {
			t.Error("snapshot corrupted by new allocation")
		}
		nb.Release()
		snapshot.Release()
	})
}

func TestReadAtPartialAndBoundary(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		data := pattern(1000, 8)
		a := NewAgg()
		// Build from many small packed pieces to get slice boundaries.
		for off := 0; off < len(data); off += 100 {
			s := h.pool.Pack(p, data[off:off+100])
			a.Append(s)
			s.Buf.Release()
		}
		dst := make([]byte, 250)
		if n := a.ReadAt(dst, 450); n != 250 {
			t.Fatalf("ReadAt = %d, want 250", n)
		}
		if !bytes.Equal(dst, data[450:700]) {
			t.Error("ReadAt crossed slice boundary incorrectly")
		}
		// Read past end returns short count.
		if n := a.ReadAt(dst, 900); n != 100 {
			t.Errorf("ReadAt near end = %d, want 100", n)
		}
		a.Release()
	})
}

func TestPoolStatsAndFreePages(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, mem.ChunkSize)
		allocs, _, cold := h.pool.Stats()
		if allocs != 1 || cold != 1 {
			t.Errorf("stats = %d allocs/%d cold", allocs, cold)
		}
		b.Release()
		if h.pool.FreePages() != mem.PagesPerChunk {
			t.Errorf("FreePages = %d", h.pool.FreePages())
		}
	})
}
