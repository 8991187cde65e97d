package cksum

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

func TestSumKnownVectors(t *testing.T) {
	// RFC 1071 §3 worked example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to
	// ddf2 (before complement) with end-around carry.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum(data); got != 0xddf2 {
		t.Fatalf("Sum = %#x, want 0xddf2", got)
	}
	if got := Finish(Sum(data)); got != ^uint16(0xddf2) {
		t.Fatalf("Finish = %#x", got)
	}
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %#x", got)
	}
	// Odd-length tail pads with a zero byte.
	if got := Sum([]byte{0xab}); got != 0xab00 {
		t.Fatalf("Sum odd = %#x, want 0xab00", got)
	}
}

// TestQuickCombineMatchesDirect: splitting a message anywhere (including odd
// offsets) and combining partial sums must equal the direct sum.
func TestQuickCombineMatchesDirect(t *testing.T) {
	f := func(seed int64, size uint16, cutFrac uint8) bool {
		n := int(size)%3000 + 2
		data := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(data)
		cut := int(cutFrac) * n / 256
		combined := Combine(Sum(data[:cut]), Sum(data[cut:]), cut)
		return combined == Sum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickManyWayCombine: combining arbitrarily fragmented pieces in order
// matches the direct sum.
func TestQuickManyWayCombine(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		n := int(size)%4000 + 1
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(data)
		var acc PartialSum
		off := 0
		for off < n {
			l := 1 + rng.Intn(97)
			if off+l > n {
				l = n - off
			}
			acc = Combine(acc, Sum(data[off:off+l]), off)
			off += l
		}
		return acc == Sum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

type env struct {
	eng  *sim.Engine
	pool *core.Pool
	c    *sim.CostModel
}

func newEnv() *env {
	e := sim.New()
	c := sim.DefaultCosts()
	vm := mem.NewVM(e, c, 64<<20)
	k := vm.NewDomain("kernel", true)
	return &env{eng: e, pool: core.NewPool(vm, k, "net"), c: c}
}

func TestAggregateChecksumCorrectAndCached(t *testing.T) {
	ev := newEnv()
	cache := NewCache(0)
	ev.eng.Go("t", func(p *sim.Proc) {
		data := make([]byte, 10001) // odd length, multi-slice
		rand.New(rand.NewSource(7)).Read(data)
		a := core.PackBytes(p, ev.pool, data[:4096])
		b := core.PackBytes(p, ev.pool, data[4096:])
		a.Concat(b)
		b.Release()

		want := Finish(Sum(data))
		t0 := p.Now()
		if got := cache.Aggregate(p, ev.c, a); got != want {
			t.Errorf("cached cksum = %#x, want %#x", got, want)
		}
		coldCost := p.Now().Sub(t0)
		if coldCost < ev.c.PriceCksum(10000) {
			t.Errorf("cold checksum cost %v, want ≥ %v", coldCost, ev.c.PriceCksum(10000))
		}

		// Second call: all slices cached — each charges only the key probe
		// (CksumLookup), never a pass over the bytes.
		t1 := p.Now()
		if got := cache.Aggregate(p, ev.c, a); got != want {
			t.Errorf("second cksum = %#x, want %#x", got, want)
		}
		hotCost := p.Now().Sub(t1)
		wantHot := sim.Duration(a.NumSlices()) * ev.c.CksumLookup
		if hotCost != wantHot {
			t.Errorf("cached checksum charged %v, want %v (lookups only)", hotCost, wantHot)
		}
		if hotCost >= ev.c.PriceCksum(a.Len()) {
			t.Errorf("hit cost %v not below byte cost %v", hotCost, ev.c.PriceCksum(a.Len()))
		}
		hits, misses, _, _ := cache.Stats()
		if hits == 0 || misses == 0 {
			t.Errorf("stats hits=%d misses=%d", hits, misses)
		}
		a.Release()
	})
	ev.eng.Run()
}

func TestGenerationChangeInvalidates(t *testing.T) {
	ev := newEnv()
	cache := NewCache(0)
	ev.eng.Go("t", func(p *sim.Proc) {
		b := ev.pool.Alloc(p, 4096)
		b.Write(0, []byte{1, 2, 3, 4})
		b.Seal()
		a := core.NewAgg()
		a.Append(core.Slice{Buf: b, Off: 0, Len: 4})
		first := cache.Aggregate(p, ev.c, a)
		a.Release()
		b.Release()

		// Reallocate: same buffer object, new generation, new contents.
		b2 := ev.pool.Alloc(p, 4096)
		if b2 != b {
			t.Fatal("expected recycled buffer")
		}
		b2.Write(0, []byte{9, 9, 9, 9})
		b2.Seal()
		a2 := core.NewAgg()
		a2.Append(core.Slice{Buf: b2, Off: 0, Len: 4})
		second := cache.Aggregate(p, ev.c, a2)
		if first == second {
			t.Error("stale checksum served after buffer reallocation")
		}
		if want := Finish(Sum([]byte{9, 9, 9, 9})); second != want {
			t.Errorf("got %#x, want %#x", second, want)
		}
		a2.Release()
		b2.Release()
	})
	ev.eng.Run()
}

// TestQuickAggregateMatchesFlat: the cached aggregate checksum over any
// fragmentation equals the flat checksum of the contents.
func TestQuickAggregateMatchesFlat(t *testing.T) {
	ev := newEnv()
	cache := NewCache(0)
	ev.eng.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(11))
		f := func(seed int64, size uint16) bool {
			n := int(size)%3000 + 1
			data := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(data)
			a := core.NewAgg()
			for off := 0; off < n; {
				l := 1 + rng.Intn(333)
				if off+l > n {
					l = n - off
				}
				s := ev.pool.Pack(p, data[off:off+l])
				a.Append(s)
				s.Buf.Release()
				off += l
			}
			ok := cache.Aggregate(p, ev.c, a) == Finish(Sum(data))
			a.Release()
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
	})
	ev.eng.Run()
}

// liveSums counts the sums c holds on the buffers of aggs: those tagged
// with the buffer's current generation and c's epoch.
func liveSums(c *Cache, aggs []*core.Agg) int {
	n := 0
	seen := map[*core.Buffer]bool{}
	for _, a := range aggs {
		for _, s := range a.Slices() {
			if seen[s.Buf] {
				continue
			}
			seen[s.Buf] = true
			for m, _ := s.Buf.Memo().(*memo); m != nil; m = m.next {
				if m.cache == c && m.gen == s.Buf.Gen() && m.epoch == c.epoch {
					n += len(m.sums)
				}
			}
		}
	}
	return n
}

func TestCacheBoundedEviction(t *testing.T) {
	ev := newEnv()
	cache := NewCache(8)
	ev.eng.Go("t", func(p *sim.Proc) {
		var aggs []*core.Agg
		for i := 0; i < 50; i++ {
			a := core.PackBytes(p, ev.pool, []byte{byte(i), byte(i + 1), byte(i + 2)})
			cache.Aggregate(p, ev.c, a)
			aggs = append(aggs, a)
			if n := liveSums(cache, aggs); n > 8 {
				t.Fatalf("after %d slices the cache holds %d sums, cap 8", i+1, n)
			}
		}
		// 50 misses at cap 8: the sixth epoch holds the last two slices.
		if n := liveSums(cache, aggs); n != 2 {
			t.Errorf("cache holds %d sums, want 2", n)
		}
		_, misses0, _, _ := cache.Stats()
		cache.Aggregate(p, ev.c, aggs[49])
		if _, misses, _, _ := cache.Stats(); misses != misses0 {
			t.Error("the newest slice missed")
		}
		cache.Aggregate(p, ev.c, aggs[0])
		if _, misses, _, _ := cache.Stats(); misses != misses0+1 {
			t.Error("the oldest slice hit after its epoch ended")
		}
		for _, a := range aggs {
			a.Release()
		}
	})
	ev.eng.Run()
}

// mapCache is the checksum cache as a table, the oracle Cache must match:
// one map keyed by ⟨buffer, generation, offset, length⟩, cleared whole
// when an insert finds it holding max sums.
type mapCache struct {
	entries map[mapKey]PartialSum
	max     int

	hits, misses, hitBytes, missBytes int64
}

type mapKey struct {
	buf      *core.Buffer
	gen      uint64
	off, len int
}

func (c *mapCache) slice(s core.Slice) PartialSum {
	k := mapKey{buf: s.Buf, gen: s.Buf.Gen(), off: s.Off, len: s.Len}
	if sum, ok := c.entries[k]; ok {
		c.hits++
		c.hitBytes += int64(s.Len)
		return sum
	}
	c.misses++
	c.missBytes += int64(s.Len)
	sum := Sum(s.Bytes())
	if len(c.entries) >= c.max {
		c.entries = make(map[mapKey]PartialSum)
	}
	c.entries[k] = sum
	return sum
}

// TestCacheMatchesMapOracle drives two caches that share four buffers
// with random slices, recycling a buffer now and then (a generation bump),
// and checks each against its table oracle after every lookup: the same
// sum and the same hit and miss counts, through many epochs at max 8.
func TestCacheMatchesMapOracle(t *testing.T) {
	ev := newEnv()
	caches := []*Cache{NewCache(8), NewCache(8)}
	oracles := []*mapCache{{entries: map[mapKey]PartialSum{}, max: 8}, {entries: map[mapKey]PartialSum{}, max: 8}}
	rng := rand.New(rand.NewSource(3))
	ev.eng.Go("t", func(p *sim.Proc) {
		fresh := func() *core.Buffer {
			b := ev.pool.Alloc(p, 4096)
			data := make([]byte, 4096)
			rng.Read(data)
			b.Write(0, data)
			b.Seal()
			return b
		}
		bufs := make([]*core.Buffer, 4)
		for i := range bufs {
			bufs[i] = fresh()
		}
		epochs := 0
		for step := 0; step < 5000; step++ {
			if rng.Intn(50) == 0 {
				i := rng.Intn(len(bufs))
				gen := bufs[i].Gen()
				bufs[i].Release()
				if bufs[i] = fresh(); bufs[i].Gen() == gen {
					t.Fatal("a recycled buffer kept its generation")
				}
			}
			b := bufs[rng.Intn(len(bufs))]
			// Few distinct slices, so that lookups hit as often as not.
			off := 512 * rng.Intn(4)
			s := core.Slice{Buf: b, Off: off, Len: 1 + 700*rng.Intn(3)}
			k := rng.Intn(len(caches))
			epoch := caches[k].epoch
			got, want := caches[k].slice(nil, ev.c, s), oracles[k].slice(s)
			if caches[k].epoch != epoch {
				epochs++
			}
			if got != want || got != Sum(s.Bytes()) {
				t.Fatalf("step %d: cache %d sums %v to %#x, oracle %#x", step, k, s, got, want)
			}
			h, m, hb, mb := caches[k].Stats()
			o := oracles[k]
			if h != o.hits || m != o.misses || hb != o.hitBytes || mb != o.missBytes {
				t.Fatalf("step %d: cache %d stats %d/%d/%d/%d, oracle %d/%d/%d/%d",
					step, k, h, m, hb, mb, o.hits, o.misses, o.hitBytes, o.missBytes)
			}
		}
		if epochs < 20 {
			t.Errorf("only %d epochs turned over", epochs)
		}
		for _, o := range oracles {
			if o.hits == 0 || o.misses == 0 {
				t.Errorf("oracle hits %d misses %d: the walk tests nothing", o.hits, o.misses)
			}
		}
		for _, b := range bufs {
			b.Release()
		}
	})
	ev.eng.Run()
}

// TestSharedCacheHitSurvivesSleep: two procs share one cache, as a
// host's pumps do. Proc a hits on a buffer's second sum and sleeps for the
// lookup; meanwhile proc b misses on a lower slice of the same buffer,
// which shifts the memo's sums, and in the second case also starts a new
// epoch, which truncates them. a must still get its own slice's sum.
func TestSharedCacheHitSurvivesSleep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newEpoch  bool
		preMisses int // misses before a's hit, of 8 an epoch holds
	}{
		{"insert", false, 2},
		{"new epoch", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := newEnv()
			cache := NewCache(8)
			data := make([]byte, 4096)
			rand.New(rand.NewSource(5)).Read(data)
			var b *core.Buffer
			var got PartialSum
			epoch := uint64(0)
			ev.eng.Go("a", func(p *sim.Proc) {
				b = ev.pool.Alloc(p, 4096)
				b.Write(0, data)
				b.Seal()
				// Two sums on b, then fillers on another buffer up to
				// preMisses, none of which sleeps.
				cache.slice(nil, ev.c, core.Slice{Buf: b, Off: 1024, Len: 100})
				cache.slice(nil, ev.c, core.Slice{Buf: b, Off: 2048, Len: 100})
				other := core.PackBytes(p, ev.pool, data)
				for i := 2; i < tc.preMisses; i++ {
					cache.slice(nil, ev.c, core.Slice{Buf: other.Slices()[0].Buf, Off: i, Len: 10})
				}
				epoch = cache.epoch
				ev.eng.Go("b", func(p *sim.Proc) {
					p.Sleep(ev.c.CksumLookup / 2)
					cache.slice(p, ev.c, core.Slice{Buf: b, Off: 0, Len: 100})
				})
				got = cache.slice(p, ev.c, core.Slice{Buf: b, Off: 2048, Len: 100})
				other.Release()
			})
			ev.eng.Run()
			if turned := cache.epoch != epoch; turned != tc.newEpoch {
				t.Fatalf("epoch turned over: %v, want %v", turned, tc.newEpoch)
			}
			if want := Sum(data[2048:2148]); got != want {
				t.Errorf("the hit returned %#x, want %#x", got, want)
			}
			if hits, misses, _, _ := cache.Stats(); hits != 1 || misses != int64(tc.preMisses)+1 {
				t.Errorf("hits %d misses %d, want 1 and %d", hits, misses, tc.preMisses+1)
			}
			b.Release()
		})
	}
}

// pairwiseSum is the RFC 1071 loop Sum must reproduce: 16-bit big-endian
// words, an odd tail byte padded with zero, end-around carry.
func pairwiseSum(data []byte) PartialSum {
	var acc uint64
	i := 0
	for ; i+1 < len(data); i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		acc += uint64(data[i]) << 8
	}
	return fold(acc)
}

// FuzzSum: the word-at-a-time Sum equals the pairwise RFC 1071 sum on any
// input, including the all-zero (sum 0) and all-0xff (sum 0xffff) edges
// where a wrong fold would differ.
func FuzzSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xab})
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7, 0x80})
	f.Add(bytes.Repeat([]byte{0}, 17))
	f.Add(bytes.Repeat([]byte{0xff}, 16))
	f.Add(bytes.Repeat([]byte{0xff}, 1501))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Sum(data), pairwiseSum(data); got != want {
			t.Fatalf("Sum(% x) = %#x, pairwise %#x", data, got, want)
		}
	})
}
