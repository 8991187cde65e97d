package mem

import (
	"testing"

	"iolite/internal/sim"
)

func newVM(bytes int64) (*sim.Engine, *VM) {
	e := sim.New()
	return e, NewVM(e, sim.DefaultCosts(), bytes)
}

func TestPagesFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, c := range cases {
		if got := PagesFor(c.n); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestReserveRelease(t *testing.T) {
	_, vm := newVM(1 << 20) // 256 pages
	if vm.TotalPages() != 256 {
		t.Fatalf("TotalPages = %d, want 256", vm.TotalPages())
	}
	vm.Reserve(TagApp, 100)
	if vm.FreePages() != 156 || vm.UsedBy(TagApp) != 100 {
		t.Fatalf("free=%d used=%d", vm.FreePages(), vm.UsedBy(TagApp))
	}
	vm.Release(TagApp, 40)
	if vm.FreePages() != 196 || vm.UsedBy(TagApp) != 60 {
		t.Fatalf("free=%d used=%d after release", vm.FreePages(), vm.UsedBy(TagApp))
	}
}

func TestReleaseTooManyPanics(t *testing.T) {
	_, vm := newVM(1 << 20)
	vm.Reserve(TagApp, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	vm.Release(TagApp, 6)
}

func TestPressureHandlerReclaims(t *testing.T) {
	_, vm := newVM(100 * PageSize)
	vm.Reserve(TagSockBuf, 90)
	reclaimed := 0
	vm.AddPressureHandler(func(need int) int {
		// Free socket buffers to satisfy demand.
		n := need
		if n > vm.UsedBy(TagSockBuf) {
			n = vm.UsedBy(TagSockBuf)
		}
		vm.Release(TagSockBuf, n)
		reclaimed += n
		return n
	})
	vm.Reserve(TagIOLite, 50)
	if vm.Overcommitted() != 0 {
		t.Fatalf("overcommit = %d, want 0", vm.Overcommitted())
	}
	if reclaimed != 40 {
		t.Fatalf("reclaimed = %d, want 40", reclaimed)
	}
	if vm.UsedBy(TagIOLite) != 50 || vm.UsedBy(TagSockBuf) != 50 {
		t.Fatalf("tags: iolite=%d sockbuf=%d", vm.UsedBy(TagIOLite), vm.UsedBy(TagSockBuf))
	}
	if vm.PressureRuns() != 1 {
		t.Fatalf("PressureRuns = %d, want 1", vm.PressureRuns())
	}
}

func TestOvercommitAccounting(t *testing.T) {
	_, vm := newVM(10 * PageSize)
	vm.Reserve(TagApp, 15) // nothing to reclaim
	if vm.Overcommitted() != 5 {
		t.Fatalf("overcommit = %d, want 5", vm.Overcommitted())
	}
	if vm.FreePages() != 0 {
		t.Fatalf("free = %d, want 0", vm.FreePages())
	}
	vm.Release(TagApp, 7) // repay debt first
	if vm.Overcommitted() != 0 {
		t.Fatalf("overcommit after release = %d, want 0", vm.Overcommitted())
	}
	if vm.FreePages() != 2 {
		t.Fatalf("free after release = %d, want 2", vm.FreePages())
	}
}

func TestChunkACLAndCosts(t *testing.T) {
	e, vm := newVM(1 << 24)
	kernel := vm.NewDomain("kernel", true)
	app := vm.NewDomain("app", false)
	cgi := vm.NewDomain("cgi", false)

	e.Go("main", func(p *sim.Proc) {
		c, _ := vm.AllocChunk(app)
		if got := c.Perm(app); got != PermReadWrite {
			t.Errorf("owner perm = %v, want rw", got)
		}
		if got := c.Perm(cgi); got != PermNone {
			t.Errorf("stranger perm = %v, want none", got)
		}

		// First grant charges a chunk map; second is free (mappings persist).
		t0 := p.Now()
		if !c.GrantRead(p, cgi) {
			t.Error("first GrantRead reported existing mapping")
		}
		mapCost := p.Now().Sub(t0)
		if mapCost != vm.Costs().ChunkMap {
			t.Errorf("first grant cost %v, want %v", mapCost, vm.Costs().ChunkMap)
		}
		t1 := p.Now()
		if c.GrantRead(p, cgi) {
			t.Error("second GrantRead claimed new mapping")
		}
		if p.Now() != t1 {
			t.Error("repeat grant charged time")
		}

		kc, _ := vm.AllocChunk(kernel)
		if kc.Perm(kernel) != PermReadWrite {
			t.Error("kernel owner perm not rw")
		}
	})
	e.Run()
	if vm.UsedBy(TagIOLite) != 2*PagesPerChunk {
		t.Fatalf("iolite pages = %d, want %d", vm.UsedBy(TagIOLite), 2*PagesPerChunk)
	}
}

func TestChunkProtectionFaults(t *testing.T) {
	e, vm := newVM(1 << 24)
	app := vm.NewDomain("app", false)
	other := vm.NewDomain("other", false)
	var c *Chunk
	e.Go("setup", func(p *sim.Proc) { c, _ = vm.AllocChunk(app) })
	e.Run()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("read fault not detected")
			}
		}()
		c.CheckRead(other)
	}()
	c.CheckRead(app) // must not panic
}

func TestChunkDoubleFreePanics(t *testing.T) {
	_, vm := newVM(1 << 24)
	app := vm.NewDomain("app", false)
	c, _ := vm.AllocChunk(app)
	c.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.Free()
}

func TestAllocChunkChargesTime(t *testing.T) {
	_, vm := newVM(1 << 24)
	app := vm.NewDomain("app", false)
	if _, cost := vm.AllocChunk(app); cost != vm.Costs().ChunkMap {
		t.Errorf("chunk alloc charged %v, want %v", cost, vm.Costs().ChunkMap)
	}
}
