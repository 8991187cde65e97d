package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

// buildAgg constructs an aggregate with the given contents, fragmented into
// random-sized packed pieces, alongside the reference byte slice.
func buildAgg(p *sim.Proc, pool *Pool, rng *rand.Rand, data []byte) *Agg {
	a := NewAgg()
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(300)
		if off+n > len(data) {
			n = len(data) - off
		}
		s := pool.Pack(p, data[off:off+n])
		a.Append(s)
		s.Buf.Release()
		off += n
	}
	return a
}

// TestQuickRangeMatchesSlicing: Range(off,n) over any fragmentation equals
// data[off:off+n].
func TestQuickRangeMatchesSlicing(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(1))
		f := func(seed int64, size uint16, offFrac, lenFrac uint8) bool {
			n := int(size)%4000 + 1
			data := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(data)
			a := buildAgg(p, h.pool, rng, data)
			defer a.Release()
			off := int(offFrac) * n / 256
			l := int(lenFrac) * (n - off) / 256
			r := a.Range(off, l)
			defer r.Release()
			return bytes.Equal(r.Materialize(), data[off:off+l])
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

// TestQuickSplitConcatRoundTrip: splitting at any point and concatenating
// the halves reproduces the original contents.
func TestQuickSplitConcatRoundTrip(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(2))
		f := func(seed int64, size uint16, cutFrac uint8) bool {
			n := int(size)%4000 + 1
			data := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(data)
			a := buildAgg(p, h.pool, rng, data)
			cut := int(cutFrac) * n / 256
			tail := a.Split(cut)
			a.Concat(tail)
			tail.Release()
			ok := a.Equal(data)
			a.Release()
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

// TestQuickDropFrontTruncInvariants: after DropFront(d) and Trunc(k), the
// aggregate equals data[d:d+k] and Len is consistent.
func TestQuickDropFrontTrunc(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(3))
		f := func(seed int64, size uint16, dFrac, kFrac uint8) bool {
			n := int(size)%4000 + 1
			data := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(data)
			a := buildAgg(p, h.pool, rng, data)
			defer a.Release()
			d := int(dFrac) * n / 256
			a.DropFront(d)
			k := int(kFrac) * (n - d) / 256
			a.Trunc(k)
			return a.Len() == k && a.Equal(data[d:d+k])
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

// TestQuickRefcountBalance: any sequence of clone/range/release operations
// ends with zero live pages once every aggregate is released.
func TestQuickRefcountBalance(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(4))
		f := func(seed int64, ops []uint8) bool {
			data := make([]byte, 2048)
			rand.New(rand.NewSource(seed)).Read(data)
			live := []*Agg{buildAgg(p, h.pool, rng, data)}
			for _, op := range ops {
				pick := live[int(op)%len(live)]
				switch op % 3 {
				case 0:
					live = append(live, pick.Clone())
				case 1:
					if pick.Len() > 1 {
						live = append(live, pick.Range(pick.Len()/4, pick.Len()/2))
					}
				case 2:
					if pick.Len() > 0 {
						pick.Trunc(pick.Len() / 2)
					}
				}
			}
			for _, a := range live {
				a.Release()
			}
			// Only the pool's open packing buffer (≤ one chunk) may stay
			// live; everything reachable from the aggregates must be freed.
			return h.pool.LivePages() <= mem.PagesPerChunk
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Error(err)
		}
	})
}

// TestQuickEqualAgreesWithMaterialize: the allocation-free comparison agrees
// with the copying one.
func TestQuickEqualAgreesWithMaterialize(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(5))
		f := func(seed int64, size uint16, mutate bool, where uint16) bool {
			n := int(size)%2000 + 1
			data := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(data)
			a := buildAgg(p, h.pool, rng, data)
			defer a.Release()
			probe := append([]byte{}, data...)
			if mutate {
				probe[int(where)%n] ^= 0x5a
			}
			return a.Equal(probe) == bytes.Equal(a.Materialize(), probe)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

// TestAppendRangeMatchesRange checks the range walk against Range, its
// oracle, over random multi-slice aggregates with an empty slice somewhere
// among their packed pieces. For random [off, off+n) it must leave dst's
// prefix alone and append exactly Range's slices, which are also the
// non-empty intersections of the aggregate's slices with the range; add
// one reference per appended slice; and panic on an out-of-range request
// or a released aggregate.
func TestAppendRangeMatchesRange(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(6))
		refs := func(a *Agg) map[*Buffer]int {
			m := map[*Buffer]int{}
			for _, s := range a.Slices() {
				m[s.Buf] = s.Buf.Refs()
			}
			return m
		}
		for i := 0; i < 200; i++ {
			data := make([]byte, 1+rng.Intn(3000))
			rng.Read(data)
			a := buildAgg(p, h.pool, rng, data)
			empty := a.slices[rng.Intn(len(a.slices))]
			empty.Off, empty.Len = empty.Off+rng.Intn(empty.Len+1), 0
			empty.Buf.Retain()
			a.slices = slices.Insert(a.slices, rng.Intn(len(a.slices)+1), empty)

			off := rng.Intn(len(data) + 1)
			n := rng.Intn(len(data) - off + 1)
			var want []Slice
			pos := 0
			for _, s := range a.Slices() {
				if lo, hi := max(off, pos), min(off+n, pos+s.Len); lo < hi {
					want = append(want, s.Sub(lo-pos, hi-lo))
				}
				pos += s.Len
			}

			before := refs(a)
			lead := Slice{Buf: a.slices[0].Buf, Len: -1} // no walk appends this
			got := a.AppendRange([]Slice{lead}, off, n)
			added := map[*Buffer]int{}
			for _, s := range got[1:] {
				added[s.Buf]++
			}
			for b, r := range refs(a) {
				if r != before[b]+added[b] {
					t.Fatalf("case %d: a buffer holds %d references after the walk, want %d+%d", i, r, before[b], added[b])
				}
			}
			r := a.Range(off, n)
			if got[0] != lead || !slices.Equal(got[1:], r.Slices()) || !slices.Equal(got[1:], want) {
				t.Fatalf("case %d: [%d,%d) of %d slices: walk %v, Range %v, want %v",
					i, off, off+n, len(a.slices), got, r.Slices(), want)
			}
			r.Release()
			for _, s := range got[1:] {
				s.Buf.Release()
			}
			for _, bad := range [][2]int{{-1, 1}, {0, -1}, {off, len(data) - off + 1}} {
				if !panics(func() { a.AppendRange(nil, bad[0], bad[1]) }) {
					t.Fatalf("case %d: [%d,%d) of %d bytes did not panic", i, bad[0], bad[0]+bad[1], len(data))
				}
			}
			a.Release()
			if !panics(func() { a.AppendRange(nil, 0, 0) }) {
				t.Fatalf("case %d: walk of a released aggregate did not panic", i)
			}
		}
		if live := h.pool.LivePages(); live > mem.PagesPerChunk {
			t.Fatalf("%d pages live after every reference was released", live)
		}
	})
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
