package cache

import (
	"testing"

	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

type env struct {
	eng  *sim.Engine
	vm   *mem.VM
	pool *core.Pool
	c    *Cache
}

func newEnv(policy Policy) *env {
	e := sim.New()
	costs := sim.DefaultCosts()
	vm := mem.NewVM(e, costs, 256<<20)
	k := vm.NewDomain("kernel", true)
	return &env{
		eng:  e,
		vm:   vm,
		pool: core.NewPool(vm, k, "file"),
		c:    New(e, costs, policy),
	}
}

func (ev *env) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	ev.eng.Go("t", body)
	ev.eng.Run()
}

// put inserts n bytes of content under file id and returns the key. Each
// entry gets a dedicated buffer so reference-based policies see entries
// independently (packed small objects would share buffers).
func (ev *env) put(p *sim.Proc, id fsim.FileID, n int) Key {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int(id) + i)
	}
	b := ev.pool.Alloc(p, n)
	b.Write(0, data)
	b.Seal()
	a := core.FromOwnedSlice(core.Slice{Buf: b, Off: 0, Len: n})
	k := Key{File: id, Off: 0, Len: int64(n)}
	ev.c.Insert(p, k, a)
	a.Release()
	return k
}

func TestLookupHitAndMiss(t *testing.T) {
	ev := newEnv(NewUnified())
	ev.run(t, func(p *sim.Proc) {
		k := ev.put(p, 1, 5000)
		got := ev.c.Lookup(p, k)
		if got == nil {
			t.Fatal("miss on inserted key")
		}
		if got.Len() != 5000 {
			t.Fatalf("Len = %d", got.Len())
		}
		got.Release()
		if miss := ev.c.Lookup(p, Key{File: 2, Off: 0, Len: 10}); miss != nil {
			t.Fatal("hit on absent key")
		}
		hits, misses, hb, mb := ev.c.Stats()
		if hits != 1 || misses != 1 || hb != 5000 || mb != 10 {
			t.Fatalf("stats: %d/%d %d/%d", hits, misses, hb, mb)
		}
	})
}

func TestLookupReturnsSharedNotCopied(t *testing.T) {
	ev := newEnv(NewUnified())
	ev.run(t, func(p *sim.Proc) {
		k := ev.put(p, 1, 3000)
		a := ev.c.Lookup(p, k)
		b := ev.c.Lookup(p, k)
		if a.Slices()[0].Buf != b.Slices()[0].Buf {
			t.Error("lookups returned different physical buffers")
		}
		a.Release()
		b.Release()
	})
}

func TestSnapshotSemanticsAcrossReplacement(t *testing.T) {
	// §3.5: a reader's aggregate must survive the entry being replaced by a
	// write, until the reader drops it.
	ev := newEnv(NewUnified())
	ev.run(t, func(p *sim.Proc) {
		k := ev.put(p, 1, 2000)
		snapshot := ev.c.Lookup(p, k)
		want := snapshot.Materialize()

		// A write replaces the cached buffers.
		newData := make([]byte, 2000)
		for i := range newData {
			newData[i] = 0xEE
		}
		na := core.PackBytes(p, ev.pool, newData)
		ev.c.InvalidateOverlap(1, 0, 2000)
		ev.c.Insert(p, k, na)
		na.Release()

		if !snapshot.Equal(want) {
			t.Error("snapshot changed after replacement")
		}
		cur := ev.c.Lookup(p, k)
		if !cur.Equal(newData) {
			t.Error("cache did not serve the new data")
		}
		cur.Release()
		snapshot.Release()
	})
}

func TestInvalidateOverlapRanges(t *testing.T) {
	ev := newEnv(NewUnified())
	ev.run(t, func(p *sim.Proc) {
		data := make([]byte, 100)
		mk := func(off int64) {
			a := core.PackBytes(p, ev.pool, data)
			ev.c.Insert(p, Key{File: 9, Off: off, Len: 100}, a)
			a.Release()
		}
		mk(0)
		mk(100)
		mk(200)
		// Overlaps [150, 250): must drop entries at 100 and 200 only.
		if n := ev.c.InvalidateOverlap(9, 150, 100); n != 2 {
			t.Fatalf("invalidated %d, want 2", n)
		}
		if !ev.c.Contains(Key{File: 9, Off: 0, Len: 100}) {
			t.Error("non-overlapping entry dropped")
		}
		// Different file untouched.
		mk(300)
		if n := ev.c.InvalidateOverlap(8, 0, 10000); n != 0 {
			t.Fatalf("cross-file invalidation: %d", n)
		}
	})
}

func TestLRUEvictionOrder(t *testing.T) {
	ev := newEnv(NewLRU())
	ev.run(t, func(p *sim.Proc) {
		k1 := ev.put(p, 1, 100)
		k2 := ev.put(p, 2, 100)
		k3 := ev.put(p, 3, 100)
		// Touch k1 so k2 becomes LRU.
		ev.c.Lookup(p, k1).Release()
		ev.c.EvictOne()
		if ev.c.Contains(k2) {
			t.Error("LRU victim was not k2")
		}
		if !ev.c.Contains(k1) || !ev.c.Contains(k3) {
			t.Error("wrong entry evicted")
		}
	})
}

func TestUnifiedPrefersUnreferenced(t *testing.T) {
	ev := newEnv(NewUnified())
	ev.run(t, func(p *sim.Proc) {
		k1 := ev.put(p, 1, 100) // oldest
		k2 := ev.put(p, 2, 100)
		// k1 is externally referenced (an app holds a lookup result).
		held := ev.c.Lookup(p, k1)
		// Re-order so k1 is LRU *and* referenced.
		ev.c.Lookup(p, k2).Release()

		ev.c.EvictOne()
		if !ev.c.Contains(k1) {
			t.Error("unified policy evicted a referenced entry while an unreferenced one existed")
		}
		if ev.c.Contains(k2) {
			t.Error("unreferenced LRU entry survived")
		}
		// With only referenced entries left, eviction falls back to LRU.
		ev.c.EvictOne()
		if ev.c.Contains(k1) {
			t.Error("fallback eviction did not fire")
		}
		held.Release()
	})
}

func TestGDSFavorsSmallFiles(t *testing.T) {
	ev := newEnv(NewGDS())
	ev.run(t, func(p *sim.Proc) {
		big := ev.put(p, 1, 100000)
		small := ev.put(p, 2, 200)
		ev.c.EvictOne()
		if ev.c.Contains(big) || !ev.c.Contains(small) {
			t.Error("GDS should evict the large entry first (H + 1/size)")
		}
	})
}

func TestGDSAgingEvictsStaleSmallEntries(t *testing.T) {
	ev := newEnv(NewGDS())
	ev.run(t, func(p *sim.Proc) {
		stale := ev.put(p, 1, 500) // small but never touched again
		// Cycle many large entries through, inflating H beyond 1/500.
		for i := 2; i < 400; i++ {
			ev.put(p, fsim.FileID(i), 4096)
			ev.c.EvictOne()
		}
		if ev.c.Contains(stale) {
			t.Error("GDS aging failed: stale small entry outlived hundreds of evictions")
		}
	})
}

func TestEvictPagesFreesMemory(t *testing.T) {
	ev := newEnv(NewUnified())
	ev.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			ev.put(p, fsim.FileID(i), mem.ChunkSize) // one chunk each
		}
		livBefore := ev.pool.LivePages()
		freed := 0
		for freed < 3*mem.PagesPerChunk {
			n := ev.c.EvictOne()
			if n == 0 {
				break
			}
			freed += n
		}
		if freed < 3*mem.PagesPerChunk {
			t.Fatalf("eviction freed %d", freed)
		}
		// After pool trim, the VM must actually get pages back.
		trimmed := ev.pool.Trim(1 << 30)
		if trimmed == 0 {
			t.Error("no pages trimmed back to VM")
		}
		if ev.pool.LivePages() >= livBefore {
			t.Error("live pages did not fall")
		}
	})
}

func TestInsertReplacesExisting(t *testing.T) {
	ev := newEnv(NewLRU())
	ev.run(t, func(p *sim.Proc) {
		k := ev.put(p, 1, 100)
		ev.put(p, 1, 100) // same key again
		if len(ev.c.entries) != 1 {
			t.Fatalf("Len = %d, want 1", len(ev.c.entries))
		}
		got := ev.c.Lookup(p, k)
		got.Release()
		// Eviction after replacement must not double-free.
		ev.c.EvictOne()
		if len(ev.c.entries) != 0 {
			t.Fatal("entry not evicted")
		}
	})
}

func TestEvictOneOnEmptyCache(t *testing.T) {
	ev := newEnv(NewGDS())
	if ev.c.EvictOne() != 0 {
		t.Fatal("eviction on empty cache returned pages")
	}
}
