package core

import (
	"bytes"
	"testing"

	"iolite/internal/sim"
)

// Edge cases of the aggregate ADT that the descriptor dispatch path
// exercises: truncation exactly at a slice boundary, front-drops spanning
// multiple slices (splitPending / partial POSIX reads), and operations on
// empty aggregates.

// multiSlice builds an aggregate of count slices, sliceLen bytes each,
// with distinguishable content.
func multiSlice(h *harness, p *sim.Proc, count, sliceLen int) (*Agg, []byte) {
	a := NewAgg()
	var want []byte
	for i := 0; i < count; i++ {
		d := pattern(sliceLen, byte(i*31+1))
		b := h.pool.Alloc(p, sliceLen)
		fill(b, d)
		a.Append(Slice{Buf: b, Off: 0, Len: sliceLen})
		b.Release()
		want = append(want, d...)
	}
	return a, want
}

func TestTruncExactlyAtSliceBoundary(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a, want := multiSlice(h, p, 3, 4096)
		third := a.Slices()[2].Buf

		// Truncate exactly at the second slice's end: the third slice must
		// be released whole, the second kept at full length.
		a.Trunc(2 * 4096)
		if a.Len() != 2*4096 || a.NumSlices() != 2 {
			t.Fatalf("after Trunc: len=%d slices=%d, want 8192/2", a.Len(), a.NumSlices())
		}
		if !bytes.Equal(a.Materialize(), want[:2*4096]) {
			t.Fatal("Trunc at boundary corrupted content")
		}
		if third.Refs() != 0 {
			t.Fatalf("boundary Trunc leaked the dropped slice's reference (refs=%d)", third.Refs())
		}

		// Truncate to zero: every reference drops, the aggregate stays
		// usable (it is empty, not dead).
		a.Trunc(0)
		if a.Len() != 0 || a.NumSlices() != 0 {
			t.Fatalf("after Trunc(0): len=%d slices=%d", a.Len(), a.NumSlices())
		}
		a.Release()
	})
}

func TestDropFrontSpanningMultipleSlices(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a, want := multiSlice(h, p, 4, 1024)
		first := a.Slices()[0].Buf
		second := a.Slices()[1].Buf

		// Drop 2.5 slices worth: the first two release entirely, the third
		// survives with an adjusted offset.
		a.DropFront(2*1024 + 512)
		if a.Len() != 2*1024-512 || a.NumSlices() != 2 {
			t.Fatalf("after DropFront: len=%d slices=%d", a.Len(), a.NumSlices())
		}
		if !bytes.Equal(a.Materialize(), want[2*1024+512:]) {
			t.Fatal("DropFront spanning slices corrupted content")
		}
		if first.Refs() != 0 || second.Refs() != 0 {
			t.Fatal("DropFront leaked references of fully dropped slices")
		}
		if a.Slices()[0].Off != 512 {
			t.Fatalf("surviving slice offset = %d, want 512", a.Slices()[0].Off)
		}

		// Drop the rest in one call ending exactly at the aggregate's end.
		a.DropFront(a.Len())
		if a.Len() != 0 || a.NumSlices() != 0 {
			t.Fatal("DropFront to empty left residue")
		}
		a.Release()
	})
}

func TestRangeOfEmptyAggregate(t *testing.T) {
	a := NewAgg()
	r := a.Range(0, 0)
	if r.Len() != 0 || r.NumSlices() != 0 {
		t.Fatalf("Range(0,0) of empty: len=%d slices=%d", r.Len(), r.NumSlices())
	}
	if got := r.Materialize(); len(got) != 0 {
		t.Fatalf("Materialize of empty range returned %d bytes", len(got))
	}
	r.Release()

	// Out-of-bounds ranges still panic, even on the empty aggregate.
	defer func() {
		if recover() == nil {
			t.Fatal("Range(0,1) of empty aggregate did not panic")
		}
		a.Release()
	}()
	a.Range(0, 1)
}

// TestOneSliceAggAllocatesOnce pins that a one-slice aggregate keeps its
// slice inline: wrapping an owned slice, and a Range or Clone that lands
// in one slice, each cost exactly one allocation, the aggregate itself.
func TestOneSliceAggAllocatesOnce(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		b := h.pool.Alloc(p, 4096)
		fill(b, pattern(4096, 5))
		s := Slice{Buf: b, Off: 0, Len: 4096}
		one := fromSlice(s)
		two, _ := multiSlice(h, p, 2, 4096)
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"FromOwnedSlice", func() { b.Retain(); FromOwnedSlice(s).Release() }},
			{"Range", func() { one.Range(100, 1460).Release() }},
			{"Range of a two-slice aggregate", func() { two.Range(4096+100, 1460).Release() }},
			{"Clone", func() { one.Clone().Release() }},
		} {
			if n := testing.AllocsPerRun(100, c.op); n != 1 {
				t.Errorf("%s allocated %.1f times, want 1", c.name, n)
			}
		}
		one.Release()
		two.Release()
		b.Release()
	})
}

// TestInlineSliceNotShared pins that no aggregate writes through another's
// inline slot: growing or trimming a clone, and refilling one emptied by
// DropFront, each leave the aggregates they came from intact.
func TestInlineSliceNotShared(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		d1, d2 := pattern(1024, 1), pattern(512, 2)
		b1, b2 := h.pool.Alloc(p, len(d1)), h.pool.Alloc(p, len(d2))
		fill(b1, d1)
		fill(b2, d2)
		s1, s2 := Slice{Buf: b1, Len: len(d1)}, Slice{Buf: b2, Len: len(d2)}
		intact := func(what string, a *Agg, want []byte) {
			t.Helper()
			if !bytes.Equal(a.Materialize(), want) {
				t.Errorf("%s: content changed", what)
			}
		}

		a := fromSlice(s1)
		c := a.Clone()
		c.DropFront(10)
		c.Append(s2)
		intact("clone grown and trimmed", c, append(append([]byte(nil), d1[10:]...), d2...))
		intact("original of the clone", a, d1)
		c.Release()
		a.Release()

		a = fromSlice(s1)
		keep := a.Clone()
		a.DropFront(a.Len())
		a.Append(s2)
		intact("refilled after DropFront to empty", a, d2)
		intact("clone taken before the DropFront", keep, d1)
		keep.Release()
		a.Release()

		if b1.Refs() != 1 || b2.Refs() != 1 {
			t.Fatalf("refs = %d, %d after every aggregate released, want 1, 1", b1.Refs(), b2.Refs())
		}
		b1.Release()
		b2.Release()
	})
}

// TestReleaseClearsInlineSlot pins that a released aggregate keeps no
// buffer reachable through its inline slot, whether the slot still held
// the only slice or a stale copy left behind when the list grew.
func TestReleaseClearsInlineSlot(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		one := fromSlice(Slice{Buf: h.pool.Alloc(p, 64), Len: 64})
		one.Slices()[0].Buf.Release()
		many, _ := multiSlice(h, p, 3, 64)
		for _, a := range []*Agg{one, many} {
			a.Release()
			if a.first[0].Buf != nil {
				t.Fatal("released aggregate still points at a buffer")
			}
		}
	})
}

// fromSlice returns an aggregate holding the single slice s, taking a new
// reference on its buffer.
func fromSlice(s Slice) *Agg {
	a := NewAgg()
	a.Append(s)
	return a
}
