package core

import (
	"fmt"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Agg is a buffer aggregate (IOL_Agg, §3.1, §3.4): a mutable ordered list of
// slices into immutable buffers. Aggregates support creation, destruction,
// duplication, concatenation, truncation and splitting; mutation of the
// *data* always happens by chaining newly filled buffers with unmodified
// slices of old ones, never in place.
//
// An aggregate owns one buffer reference per slice it holds. Destroying the
// aggregate (Release) drops those references, which is what eventually
// recycles buffers.
//
// The first slice lives inline, so a one-slice aggregate (the delivery of
// an MSS piece, a packed object) is one allocation.
type Agg struct {
	slices []Slice
	n      int
	dead   bool
	first  [1]Slice
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg { return &Agg{} }

// FromOwnedSlice wraps a slice whose reference the caller already holds and
// transfers that reference to the aggregate (no Retain).
func FromOwnedSlice(s Slice) *Agg {
	a := NewAgg()
	a.push(s)
	return a
}

// Len returns the total data length.
func (a *Agg) Len() int {
	return a.n
}

// NumSlices returns the number of slices (the fragmentation degree that
// §3.8 discusses).
func (a *Agg) NumSlices() int { return len(a.slices) }

// Slices returns the aggregate's slice list. Callers must not modify it.
func (a *Agg) Slices() []Slice { return a.slices }

func (a *Agg) check() {
	if a.dead {
		panic("core: use of released aggregate")
	}
}

// Append adds s at the end, retaining its buffer.
func (a *Agg) Append(s Slice) {
	a.check()
	if s.Len == 0 {
		return
	}
	s.Buf.Retain()
	a.push(s)
}

// push appends s, whose reference the aggregate now owns. An aggregate
// with no backing array starts on its inline one.
func (a *Agg) push(s Slice) {
	if cap(a.slices) == 0 {
		a.slices = a.first[:0]
	}
	a.slices = append(a.slices, s)
	a.n += s.Len
}

// Concat appends a copy of b's contents (by reference) to a. b is unchanged.
func (a *Agg) Concat(b *Agg) {
	a.check()
	b.check()
	for _, s := range b.slices {
		a.Append(s)
	}
}

// Clone duplicates the aggregate: the new aggregate references the same
// immutable buffers (no data copy).
func (a *Agg) Clone() *Agg {
	a.check()
	c := NewAgg()
	c.Concat(a)
	return c
}

// Range returns a new aggregate referencing [off, off+n) of a — the
// indexing operation that slices an aggregate without touching data.
func (a *Agg) Range(off, n int) *Agg {
	out := NewAgg()
	out.slices = a.AppendRange(out.first[:0], off, n)
	out.n = n
	return out
}

// AppendRange appends the slices that cover [off, off+n) of a to dst,
// taking one buffer reference for each, and returns the extended list. It
// is Range's walk without the new aggregate: a caller that keeps the
// references in an array of its own (an in-flight segment) owns them and
// releases each slice it appended. Empty slices of a are skipped, so every
// appended slice holds data.
func (a *Agg) AppendRange(dst []Slice, off, n int) []Slice {
	a.check()
	if off < 0 || n < 0 || off+n > a.n {
		panic(fmt.Sprintf("core: Range [%d,%d) of %d-byte aggregate", off, off+n, a.n))
	}
	for _, s := range a.slices {
		if n == 0 {
			break
		}
		if off >= s.Len {
			off -= s.Len
			continue
		}
		take := min(s.Len-off, n)
		s.Buf.Retain()
		dst = append(dst, s.Sub(off, take))
		off = 0
		n -= take
	}
	return dst
}

// Trunc shortens the aggregate to n bytes, releasing references to slices
// that fall off the end.
func (a *Agg) Trunc(n int) {
	a.check()
	if n < 0 || n > a.n {
		panic(fmt.Sprintf("core: Trunc to %d of %d-byte aggregate", n, a.n))
	}
	keep := n
	i := 0
	for ; i < len(a.slices) && keep > 0; i++ {
		if a.slices[i].Len >= keep {
			a.slices[i].Len = keep
			keep = 0
			i++
			break
		}
		keep -= a.slices[i].Len
	}
	for j := i; j < len(a.slices); j++ {
		a.slices[j].Buf.Release()
	}
	a.slices = a.slices[:i]
	a.n = n
}

// DropFront removes the first n bytes (e.g. acknowledged data leaving a TCP
// send buffer), releasing references that become unused.
func (a *Agg) DropFront(n int) {
	a.check()
	if n < 0 || n > a.n {
		panic(fmt.Sprintf("core: DropFront %d of %d-byte aggregate", n, a.n))
	}
	for n > 0 {
		s := &a.slices[0]
		if s.Len > n {
			s.Off += n
			s.Len -= n
			a.n -= n
			return
		}
		n -= s.Len
		a.n -= s.Len
		s.Buf.Release()
		a.slices = a.slices[1:]
	}
}

// Split cuts the aggregate at off, leaving [0,off) in a and returning a new
// aggregate holding [off, len).
func (a *Agg) Split(off int) *Agg {
	a.check()
	tail := a.Range(off, a.n-off)
	a.Trunc(off)
	return tail
}

// Release destroys the aggregate, dropping all buffer references. Any later
// use panics.
func (a *Agg) Release() {
	a.check()
	for _, s := range a.slices {
		s.Buf.Release()
	}
	a.slices = nil
	a.first = [1]Slice{}
	a.n = 0
	a.dead = true
}

// ReadAt copies min(len(dst), Len-off) bytes starting at off into dst and
// returns the count. This is the *consumer's* data access; callers model its
// CPU cost (a copying consumer charges CostModel.Copy, a scanning consumer
// charges Touch).
func (a *Agg) ReadAt(dst []byte, off int) int {
	a.check()
	if off < 0 || off > a.n {
		panic(fmt.Sprintf("core: ReadAt offset %d of %d-byte aggregate", off, a.n))
	}
	total := 0
	for _, s := range a.slices {
		if len(dst) == 0 {
			break
		}
		if off >= s.Len {
			off -= s.Len
			continue
		}
		n := copy(dst, s.Bytes()[off:])
		dst = dst[n:]
		off = 0
		total += n
	}
	return total
}

// Materialize returns the aggregate's full contents as one contiguous byte
// slice (a real copy; used by tests and by consumers that need contiguity).
func (a *Agg) Materialize() []byte {
	out := make([]byte, a.n)
	a.ReadAt(out, 0)
	return out
}

// PackBytes allocates space for data in pool (packing small objects onto
// shared pages) and returns a single-slice aggregate holding it. The charge
// for the producer's copy of the data into the buffer is paid by proc.
func PackBytes(p *sim.Proc, pool *Pool, data []byte) *Agg {
	if len(data) <= mem.ChunkSize {
		s := pool.Pack(p, data)
		if p != nil {
			p.Sleep(pool.vm.Costs().Copy(len(data)))
		}
		return FromOwnedSlice(s)
	}
	// Large objects get dedicated buffers, one chunk-multiple each.
	a := NewAgg()
	for off := 0; off < len(data); off += mem.ChunkSize {
		end := off + mem.ChunkSize
		if end > len(data) {
			end = len(data)
		}
		b := pool.Alloc(p, end-off)
		b.Write(0, data[off:end])
		b.Seal()
		if p != nil {
			p.Sleep(pool.vm.Costs().Copy(end - off))
		}
		a.push(Slice{Buf: b, Off: 0, Len: end - off})
	}
	return a
}

// Equal reports whether the aggregate's contents equal data, without
// allocating.
func (a *Agg) Equal(data []byte) bool {
	if a.n != len(data) {
		return false
	}
	off := 0
	for _, s := range a.slices {
		b := s.Bytes()
		for i := range b {
			if b[i] != data[off+i] {
				return false
			}
		}
		off += s.Len
	}
	return true
}
