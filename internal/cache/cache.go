// Package cache implements the IO-Lite unified file cache (§3.5, §3.7): a
// map from ⟨file-id, offset, length⟩ to buffer aggregates holding the
// corresponding file data. The cache has no statically allocated storage —
// entries reference ordinary IO-Lite buffers that applications and the
// network may concurrently reference — and it supports application-specific
// replacement policies (LRU and Greedy-Dual-Size, plus the paper's default
// unified rule).
package cache

import (
	"fmt"

	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/sim"
)

// Key identifies a cached extent.
type Key struct {
	File fsim.FileID
	Off  int64
	Len  int64
}

// Entry is one cache entry: an aggregate holding file data plus replacement
// bookkeeping.
type Entry struct {
	Key Key
	Agg *core.Agg

	// refsHeld counts, per buffer, the references this entry's aggregate
	// holds, so the unified policy can detect external sharing.
	refsHeld map[*core.Buffer]int

	lastUse sim.Time
	prio    float64 // GDS priority
	heapIdx int
	lruPrev *Entry
	lruNext *Entry
}

// Pages estimates the entry's memory footprint in buffer pages.
func (e *Entry) Pages() int {
	pages := 0
	seen := map[*core.Buffer]bool{}
	for _, s := range e.Agg.Slices() {
		if !seen[s.Buf] {
			seen[s.Buf] = true
			pages += s.Buf.Pages()
		}
	}
	return pages
}

// Referenced reports whether any of the entry's buffers is currently
// referenced by something other than this entry — an application, the
// network subsystem, or another cache entry (§3.7 considers such entries
// second-choice victims).
func (e *Entry) Referenced() bool {
	for b, held := range e.refsHeld {
		if b.Refs() > held {
			return true
		}
	}
	return false
}

// Policy is a replacement policy. The cache calls Add/Touch/Remove to keep
// the policy's books; Victim selects and removes the next entry to evict.
type Policy interface {
	Add(e *Entry)
	Touch(e *Entry)
	Remove(e *Entry)
	Victim() *Entry
}

// Cache is the unified file cache.
type Cache struct {
	eng    *sim.Engine
	costs  *sim.CostModel
	policy Policy

	entries map[Key]*Entry

	hits, misses         int64
	hitBytes, missBytes  int64
	inserts, evictions   int64
	invalidated          int64
	replacedWhileShared  int64
	evictionsWhileShared int64
}

// New creates an empty cache with the given replacement policy.
func New(eng *sim.Engine, costs *sim.CostModel, policy Policy) *Cache {
	return &Cache{
		eng:     eng,
		costs:   costs,
		policy:  policy,
		entries: make(map[Key]*Entry),
	}
}

// Lookup returns a caller-owned duplicate of the cached aggregate for the
// exact extent, or nil on miss. The duplicate references the same immutable
// buffers (no copy); the caller must Release it.
func (c *Cache) Lookup(p *sim.Proc, k Key) *core.Agg {
	if p != nil {
		p.Sleep(c.costs.CacheLookup)
	}
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		c.missBytes += k.Len
		return nil
	}
	c.hits++
	c.hitBytes += k.Len
	e.lastUse = c.eng.Now()
	c.policy.Touch(e)
	return e.Agg.Clone()
}

// Contains reports whether the exact extent is cached, without charging
// costs or touching the policy.
func (c *Cache) Contains(k Key) bool {
	_, ok := c.entries[k]
	return ok
}

// Insert adds (or replaces) the cache entry for k with its own duplicate of
// agg. The caller keeps ownership of agg. Insertion happens on every miss —
// the cache grows until memory pressure evicts (§3.7).
func (c *Cache) Insert(p *sim.Proc, k Key, agg *core.Agg) {
	if int64(agg.Len()) != k.Len {
		panic(fmt.Sprintf("cache: inserting %d bytes under key of %d", agg.Len(), k.Len))
	}
	if old, ok := c.entries[k]; ok {
		c.removeEntry(old)
	}
	dup := agg.Clone()
	e := &Entry{
		Key:      k,
		Agg:      dup,
		refsHeld: make(map[*core.Buffer]int),
		lastUse:  c.eng.Now(),
	}
	for _, s := range dup.Slices() {
		e.refsHeld[s.Buf]++
	}
	c.entries[k] = e
	c.inserts++
	c.policy.Add(e)
	if p != nil {
		p.Sleep(c.costs.CacheLookup)
	}
}

// removeEntry drops e from the map and policy and releases its buffers.
// Buffers still referenced elsewhere persist — that is what preserves
// IOL_read snapshot semantics across replacement (§3.5).
func (c *Cache) removeEntry(e *Entry) {
	if e.Referenced() {
		c.replacedWhileShared++
	}
	delete(c.entries, e.Key)
	c.policy.Remove(e)
	e.Agg.Release()
}

// InvalidateOverlap removes every entry of the file overlapping
// [off, off+n): an IOL_write replaces the corresponding buffers in the cache
// (§3.5). It returns how many entries were dropped.
func (c *Cache) InvalidateOverlap(file fsim.FileID, off, n int64) int {
	dropped := 0
	for k, e := range c.entries {
		if k.File == file && off < k.Off+k.Len && k.Off < off+n {
			c.removeEntry(e)
			c.invalidated++
			dropped++
		}
	}
	return dropped
}

// EvictOne evicts the policy's chosen victim and returns its estimated page
// count (0 if the cache is empty). Freed pages become reclaimable once the
// buffers' other references drain and the owning pool is trimmed.
func (c *Cache) EvictOne() int {
	e := c.policy.Victim()
	if e == nil {
		return 0
	}
	if e.Referenced() {
		c.evictionsWhileShared++
	}
	pages := e.Pages()
	delete(c.entries, e.Key)
	c.evictions++
	e.Agg.Release()
	return pages
}

// Stats reports hit/miss counters in lookups and bytes.
func (c *Cache) Stats() (hits, misses, hitBytes, missBytes int64) {
	return c.hits, c.misses, c.hitBytes, c.missBytes
}

// EvictionStats reports insert/evict/invalidate counters.
func (c *Cache) EvictionStats() (inserts, evictions, invalidated int64) {
	return c.inserts, c.evictions, c.invalidated
}

// ResetMeters zeroes the counters.
func (c *Cache) ResetMeters() {
	c.hits, c.misses, c.hitBytes, c.missBytes = 0, 0, 0, 0
	c.inserts, c.evictions, c.invalidated = 0, 0, 0
}
