// Package cksum implements the RFC 1071 Internet checksum over IO-Lite
// buffer aggregates, plus the cross-subsystem checksum cache of §3.9. A
// buffer's address and generation name its immutable contents, so each
// slice's partial sum is kept on the buffer itself, tagged with the
// generation and selected by ⟨offset, length⟩: retransmitting the same
// data (a popular document served from the unified file cache) never
// touches the bytes again, and a hit is found without a table probe.
package cksum

import (
	"encoding/binary"
	"slices"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// PartialSum is an un-complemented ones-complement sum of a byte range,
// normalized as if the range started at an even byte offset.
type PartialSum uint16

// Sum computes the partial ones-complement sum of data (even-offset
// normalized, not inverted). It adds 8 bytes per step, as the two
// big-endian 32-bit halves of a word: since 2^16 ≡ 1 modulo 0xffff, a
// 32-bit half folds to the sum of its two 16-bit words, so the result is
// the pairwise RFC 1071 sum. The 64-bit accumulator cannot overflow below
// 2^32 steps.
func Sum(data []byte) PartialSum {
	var acc uint64
	i := 0
	for ; i+8 <= len(data); i += 8 {
		w := binary.BigEndian.Uint64(data[i:])
		acc += w>>32 + w&0xffffffff
	}
	for ; i+1 < len(data); i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		acc += uint64(data[i]) << 8
	}
	return fold(acc)
}

// fold reduces a 64-bit accumulator to 16 bits with end-around carry.
func fold(acc uint64) PartialSum {
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return PartialSum(acc)
}

// swap byte-swaps a partial sum, the RFC 1071 adjustment for combining a
// part that lands at an odd byte offset of the overall message.
func (s PartialSum) swap() PartialSum {
	return PartialSum(s>>8 | s<<8)
}

// Combine adds part b (of length bLen bytes) after a, where b starts at
// absolute byte offset off in the overall message. bLen is needed by
// callers chaining further parts; Combine itself only needs the offset
// parity.
func Combine(a PartialSum, b PartialSum, off int) PartialSum {
	if off%2 == 1 {
		b = b.swap()
	}
	return fold(uint64(a) + uint64(b))
}

// Finish complements a partial sum into the on-the-wire checksum value.
func Finish(s PartialSum) uint16 {
	return ^uint16(s)
}

// Cache memoizes per-slice partial sums on the buffers themselves. Each
// buffer's memo slot holds one memo per cache that has summed it, tagged
// with the buffer generation and the cache epoch it was filled in; a memo
// whose tags are stale holds nothing. Every maxEntries misses the epoch
// advances, which drops every memo of the cache at once: the bounded
// clear of a table, so hit and miss counts (and the simulated time they
// charge) follow a cache of at most maxEntries slices exactly.
type Cache struct {
	max   int
	count int    // misses since the epoch began: the sums it holds
	epoch uint64 // memos from an earlier epoch are stale

	hits      int64
	misses    int64
	hitBytes  int64
	missBytes int64
}

// memo is one cache's sums for one generation of one buffer, kept in the
// buffer's memo slot. A second cache that sends the same buffer (a proxy
// forwarding the origin's buffers) chains its own memo through next.
type memo struct {
	cache *Cache
	gen   uint64 // buffer generation the sums describe; 0 matches none
	epoch uint64
	sums  []memoSum // sorted by key
	next  *memo
}

// memoSum is the partial sum of the slice key = offset<<32 | length.
type memoSum struct {
	key uint64
	sum PartialSum
}

// maxMemos bounds a buffer's memo chain. Two caches share a buffer in the
// proxy figures; a caller that makes a fresh cache per pass over the same
// buffers takes over the last memo instead of growing the chain.
const maxMemos = 4

// NewCache returns a cache bounded to roughly maxEntries slices.
// maxEntries <= 0 selects a default.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	return &Cache{max: maxEntries}
}

// Stats reports cache hits and misses (in lookups and bytes).
func (c *Cache) Stats() (hits, misses, hitBytes, missBytes int64) {
	return c.hits, c.misses, c.hitBytes, c.missBytes
}

// HitRate reports the fraction of lookups that hit (0 when idle).
func (c *Cache) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// ResetMeters zeroes the hit/miss counters (cached sums stay valid), so a
// measurement window can exclude warmup.
func (c *Cache) ResetMeters() {
	c.hits, c.misses, c.hitBytes, c.missBytes = 0, 0, 0, 0
}

// memoFor returns c's memo on b, adding one, or with the chain full
// taking over its last.
func (c *Cache) memoFor(b *core.Buffer) *memo {
	first, _ := b.Memo().(*memo)
	n := 0
	for m := first; m != nil; m = m.next {
		if m.cache == c {
			return m
		}
		if n++; n == maxMemos {
			m.cache, m.gen = c, 0
			return m
		}
	}
	// Room for a sum per KB, up to 64, holds an MSS-sliced send without
	// regrowing.
	m := &memo{cache: c, next: first, sums: make([]memoSum, 0, min(max(b.Cap()>>10, 4), 64))}
	b.SetMemo(m)
	return m
}

// slice returns the partial sum for s, consulting the cache. A hit charges
// only the lookup (CksumLookup); the CPU time for computing missed sums
// is charged to p (nil skips cost accounting).
func (c *Cache) slice(p *sim.Proc, costs *sim.CostModel, s core.Slice) PartialSum {
	m := c.memoFor(s.Buf)
	key := uint64(s.Off)<<32 | uint64(s.Len)
	live := m.gen == s.Buf.Gen() && m.epoch == c.epoch
	i := 0
	if live {
		// Binary search for the first sum whose key is not below key,
		// by hand: slices.BinarySearchFunc's callback costs a third more
		// per hit.
		lo, hi := 0, len(m.sums)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if m.sums[mid].key < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if i = lo; i < len(m.sums) && m.sums[i].key == key {
			// Read the sum before sleeping: a proc that shares this
			// cache may insert into the memo, or start a new epoch and
			// truncate it, while this one sleeps.
			sum := m.sums[i].sum
			c.hits++
			c.hitBytes += int64(s.Len)
			if p != nil {
				p.Sleep(costs.CksumLookup)
			}
			return sum
		}
	}
	c.misses++
	c.missBytes += int64(s.Len)
	sum := Sum(s.Bytes())
	if c.count >= c.max {
		// Coarse eviction: a new epoch drops every sum. Simple, and
		// harmless at the scales the experiments run at.
		c.epoch++
		c.count = 0
		live = false
	}
	c.count++
	if !live {
		m.gen, m.epoch, m.sums, i = s.Buf.Gen(), c.epoch, m.sums[:0], 0
	}
	m.sums = slices.Insert(m.sums, i, memoSum{key: key, sum: sum})
	if p != nil {
		p.Sleep(costs.Cksum(s.Len))
	}
	return sum
}

// Partial returns the un-complemented partial sum of the slices'
// contents, in order and even-offset normalized: the form Aggregate
// finishes, and the one a sender takes over a segment's run of buffer
// slices without wrapping them in an aggregate. Slice sums come from the
// cache when possible; only missed slices cost CPU time.
func (c *Cache) Partial(p *sim.Proc, costs *sim.CostModel, run []core.Slice) PartialSum {
	var acc PartialSum
	off := 0
	for _, s := range run {
		acc = Combine(acc, c.slice(p, costs, s), off)
		off += s.Len
	}
	return acc
}

// Aggregate returns the finished Internet checksum of the aggregate's
// contents, assuming they start at even offset (e.g. a TCP payload).
func (c *Cache) Aggregate(p *sim.Proc, costs *sim.CostModel, a *core.Agg) uint16 {
	return Finish(c.Partial(p, costs, a.Slices()))
}
