// Package core implements the paper's primary contribution: IO-Lite's
// immutable I/O buffers, mutable buffer aggregates, and access-controlled
// allocation pools (§3.1–§3.4).
//
// Buffers are allocated with an initial content that may not subsequently
// change; all sharing is therefore read-only. Aggregates are ordered lists
// of ⟨buffer, offset, length⟩ slices and are passed between subsystems by
// value while the underlying buffers are passed by reference, refcounted,
// and recycled through their pool.
package core

import (
	"fmt"

	"iolite/internal/mem"
)

// Buffer is an immutable IO-Lite buffer: an integral number of (virtually)
// contiguous VM pages within one 64 KB chunk of the IO-Lite window (§3.3).
// A buffer is filled exactly once by its producer and then sealed; the
// simulated kernel panics on any later mutation attempt, turning
// immutability violations into test failures.
type Buffer struct {
	pool       *Pool
	chunk      *mem.Chunk
	ownsChunks int // >0 when the buffer owns whole chunks (chunk-multiple sizes)
	data       []byte

	refs     int
	gen      uint64 // generation number, incremented on every reallocation (§3.9)
	sealed   bool
	packMode bool // buffer is filled via Pool.Pack, never via Write
	packed   int  // high-water mark for pack-mode buffers (sub-page object packing, §3.3)
	free     bool

	// memo is an opaque slot for a subsystem that memoizes facts about
	// the buffer's contents (the checksum cache, §3.9). Only that
	// subsystem reads it; it must tag what it keeps with the generation,
	// since the slot survives recycling.
	memo any
}

// Gen returns the buffer's current generation number. The buffer (its
// address) plus its generation uniquely identify its contents (§3.9).
func (b *Buffer) Gen() uint64 { return b.gen }

// Memo returns the buffer's memo slot (nil until SetMemo).
func (b *Buffer) Memo() any { return b.memo }

// SetMemo replaces the buffer's memo slot.
func (b *Buffer) SetMemo(m any) { b.memo = m }

// Cap returns the buffer's capacity in bytes (whole pages).
func (b *Buffer) Cap() int { return len(b.data) }

// Pages returns the buffer's size in VM pages.
func (b *Buffer) Pages() int { return len(b.data) / mem.PageSize }

// Chunk returns the 64 KB access-control chunk containing the buffer.
func (b *Buffer) Chunk() *mem.Chunk { return b.chunk }

// Pool returns the allocation pool the buffer belongs to.
func (b *Buffer) Pool() *Pool { return b.pool }

// Write fills [off, off+len(src)) of a not-yet-sealed buffer. The data copy
// itself is free here: the *caller* models the cost (a producing subsystem
// charges CostModel.Copy, a DMA engine charges nothing).
func (b *Buffer) Write(off int, src []byte) {
	if b.free {
		panic("core: write to freed buffer")
	}
	if b.sealed {
		panic(fmt.Sprintf("core: write to sealed (immutable) buffer %v", b))
	}
	if b.packMode {
		panic("core: direct write to a pack-mode buffer")
	}
	if off < 0 || off+len(src) > len(b.data) {
		panic(fmt.Sprintf("core: write [%d,%d) outside buffer of %d bytes", off, off+len(src), len(b.data)))
	}
	copy(b.data[off:], src)
}

// Seal makes the buffer immutable. Producers call it when the initial
// content is complete.
func (b *Buffer) Seal() {
	if b.free {
		panic("core: seal of freed buffer")
	}
	b.sealed = true
}

// Bytes returns a read-only view of [off, off+n). The buffer must be sealed
// (or the range packed): consumers may never observe mutable data.
func (b *Buffer) Bytes(off, n int) []byte {
	if b.free {
		panic("core: read of freed buffer")
	}
	if !b.sealed && off+n > b.packed {
		panic(fmt.Sprintf("core: read of unsealed range [%d,%d) in buffer %v", off, off+n, b))
	}
	if off < 0 || n < 0 || off+n > len(b.data) {
		panic(fmt.Sprintf("core: read [%d,%d) outside buffer of %d bytes", off, off+n, len(b.data)))
	}
	return b.data[off : off+n : off+n]
}

// Retain increments the buffer's reference count. Every Slice held by an
// aggregate, cache entry, or in-flight packet owns one reference.
func (b *Buffer) Retain() {
	if b.free {
		panic("core: retain of freed buffer")
	}
	b.refs++
}

// Release drops one reference. When the count reaches zero the buffer
// returns to its pool's recycled-buffer cache (§3.2): its mappings persist,
// and the next allocation from the pool reuses it with a bumped generation
// number at near-shared-memory cost.
func (b *Buffer) Release() {
	if b.free {
		panic("core: release of freed buffer")
	}
	if b.refs <= 0 {
		panic(fmt.Sprintf("core: refcount underflow on buffer %v", b))
	}
	b.refs--
	if b.refs == 0 {
		b.pool.recycle(b)
	}
}

// Refs reports the current reference count.
func (b *Buffer) Refs() int { return b.refs }

// String names the buffer by its pool and generation.
func (b *Buffer) String() string {
	return fmt.Sprintf("buffer(pool=%s gen=%d)", b.pool.name, b.gen)
}

// Slice is a ⟨buffer, offset, length⟩ tuple referring to a contiguous byte
// range of one immutable buffer (§3.3). Slices within the same buffer may
// overlap. A Slice does not itself own a reference; aggregates manage
// references for the slices they hold.
type Slice struct {
	Buf *Buffer
	Off int
	Len int
}

// Bytes returns the slice's read-only data.
func (s Slice) Bytes() []byte { return s.Buf.Bytes(s.Off, s.Len) }

// Sub returns the sub-slice [off, off+n) of s.
func (s Slice) Sub(off, n int) Slice {
	if off < 0 || n < 0 || off+n > s.Len {
		panic(fmt.Sprintf("core: sub-slice [%d,%d) of %d-byte slice", off, off+n, s.Len))
	}
	return Slice{Buf: s.Buf, Off: s.Off + off, Len: n}
}

func (s Slice) String() string {
	return fmt.Sprintf("slice(pool=%s gen=%d [%d,%d))", s.Buf.pool.name, s.Buf.gen, s.Off, s.Off+s.Len)
}
