// Package cksum implements the RFC 1071 Internet checksum over IO-Lite
// buffer aggregates, plus the cross-subsystem checksum cache of §3.9: each
// slice's partial sum is cached keyed by ⟨buffer id, generation, offset,
// length⟩, so retransmitting the same immutable data (a popular document
// served from the unified file cache) never touches the bytes again.
package cksum

import (
	"iolite/internal/core"
	"iolite/internal/sim"
)

// PartialSum is an un-complemented ones-complement sum of a byte range,
// normalized as if the range started at an even byte offset.
type PartialSum uint16

// Sum computes the partial ones-complement sum of data (even-offset
// normalized, not inverted).
func Sum(data []byte) PartialSum {
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

// cacheKey uniquely identifies immutable slice *contents* systemwide: a
// buffer's address (id) plus its generation number identify its data values
// (§3.9), and offset/length select the slice.
type cacheKey struct {
	buf uint64
	gen uint64
	off int
	len int
}

// Cache memoizes per-slice partial sums. A bounded map with coarse clearing
// keeps memory finite on long runs; real workloads' working sets fit easily.
type Cache struct {
	entries map[cacheKey]PartialSum
	max     int

	hits      int64
	misses    int64
	hitBytes  int64
	missBytes int64
}

// NewCache returns a cache bounded to roughly maxEntries slices.
// maxEntries <= 0 selects a default.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	return &Cache{entries: make(map[cacheKey]PartialSum), max: maxEntries}
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

// slice returns the partial sum for s, consulting the cache. A hit charges
// only the key probe (CksumLookup); the CPU time for computing missed sums
// is charged to p (nil skips cost accounting).
func (c *Cache) slice(p *sim.Proc, costs *sim.CostModel, s core.Slice) PartialSum {
	k := cacheKey{buf: s.Buf.ID(), gen: s.Buf.Gen(), off: s.Off, len: s.Len}
	if sum, ok := c.entries[k]; ok {
		c.hits++
		c.hitBytes += int64(s.Len)
		if p != nil {
			p.Sleep(costs.CksumLookup)
		}
		return sum
	}
	c.misses++
	c.missBytes += int64(s.Len)
	sum := Sum(s.Bytes())
	if len(c.entries) >= c.max {
		// Coarse eviction: drop everything. Simple, and harmless at the
		// scales the experiments run at.
		c.entries = make(map[cacheKey]PartialSum)
	}
	c.entries[k] = sum
	if p != nil {
		p.Sleep(costs.Cksum(s.Len))
	}
	return sum
}

// Partial returns the un-complemented partial sum of the aggregate's
// contents (even-offset normalized) — the composable form Aggregate
// finishes. Integrity layers that fold a stream of reads into one running
// checksum Combine Partials across calls. Slice sums come from the cache
// when possible; only missed slices cost CPU time.
func (c *Cache) Partial(p *sim.Proc, costs *sim.CostModel, a *core.Agg) PartialSum {
	var acc PartialSum
	off := 0
	for _, s := range a.Slices() {
		acc = Combine(acc, c.slice(p, costs, s), off)
		off += s.Len
	}
	return acc
}

// Aggregate returns the finished Internet checksum of the aggregate's
// contents, assuming they start at even offset (e.g. a TCP payload).
func (c *Cache) Aggregate(p *sim.Proc, costs *sim.CostModel, a *core.Agg) uint16 {
	return Finish(c.Partial(p, costs, a))
}

// AggregateNoCache computes the checksum touching every byte, charging full
// cost — the baseline path for systems without the checksum cache (the
// Figure 11 "no cksum cache" configurations).
func AggregateNoCache(p *sim.Proc, costs *sim.CostModel, a *core.Agg) uint16 {
	var acc PartialSum
	off := 0
	for _, s := range a.Slices() {
		acc = Combine(acc, Sum(s.Bytes()), off)
		off += s.Len
	}
	if p != nil {
		p.Sleep(costs.Cksum(a.Len()))
	}
	return Finish(acc)
}
