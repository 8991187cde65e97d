package cache

import "container/heap"

// lruList is an intrusive doubly-linked LRU list over Entry. head is most
// recently used, tail least.
type lruList struct {
	head, tail *Entry
	n          int
}

func (l *lruList) pushFront(e *Entry) {
	e.lruPrev = nil
	e.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
}

func (l *lruList) remove(e *Entry) {
	if e.lruPrev != nil {
		e.lruPrev.lruNext = e.lruNext
	} else {
		l.head = e.lruNext
	}
	if e.lruNext != nil {
		e.lruNext.lruPrev = e.lruPrev
	} else {
		l.tail = e.lruPrev
	}
	e.lruPrev, e.lruNext = nil, nil
	l.n--
}

func (l *lruList) moveFront(e *Entry) {
	l.remove(e)
	l.pushFront(e)
}

// LRU is plain least-recently-used replacement — the traditional policy the
// paper compares GDS against in Figure 11 (Flash-Lite-LRU).
type LRU struct {
	list lruList
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Add implements Policy.
func (p *LRU) Add(e *Entry) { p.list.pushFront(e) }

// Touch implements Policy.
func (p *LRU) Touch(e *Entry) { p.list.moveFront(e) }

// Remove implements Policy.
func (p *LRU) Remove(e *Entry) { p.list.remove(e) }

// Victim implements Policy: the least recently used entry.
func (p *LRU) Victim() *Entry {
	v := p.list.tail
	if v != nil {
		p.list.remove(v)
	}
	return v
}

// Unified is the paper's default rule (§3.7): entries are ordered first by
// current use — is anything other than the cache referencing the data? —
// then by time of last access. The victim is the least recently used among
// currently-unreferenced entries; only if every entry is externally
// referenced does it fall back to the least recently used overall.
type Unified struct {
	list lruList
}

// NewUnified returns an empty unified policy.
func NewUnified() *Unified { return &Unified{} }

// Add implements Policy.
func (p *Unified) Add(e *Entry) { p.list.pushFront(e) }

// Touch implements Policy.
func (p *Unified) Touch(e *Entry) { p.list.moveFront(e) }

// Remove implements Policy.
func (p *Unified) Remove(e *Entry) { p.list.remove(e) }

// Victim implements Policy.
func (p *Unified) Victim() *Entry {
	for e := p.list.tail; e != nil; e = e.lruPrev {
		if !e.Referenced() {
			p.list.remove(e)
			return e
		}
	}
	v := p.list.tail
	if v != nil {
		p.list.remove(v)
	}
	return v
}

// GDS is Greedy-Dual-Size (Cao & Irani 1997) with uniform retrieval cost —
// the customized policy Flash-Lite installs through IO-Lite's
// application-specific replacement support (§3.7, §5). Each entry's
// priority is H + 1/size; H inflates to the victim's priority on every
// eviction, aging out stale entries. Small popular files are favored,
// which maximizes hit rate on Web workloads.
type GDS struct {
	h       float64
	entries gdsHeap
}

// NewGDS returns an empty GDS policy.
func NewGDS() *GDS { return &GDS{} }

func (p *GDS) priority(e *Entry) float64 {
	size := float64(e.Key.Len)
	if size < 1 {
		size = 1
	}
	return p.h + 1/size
}

// Add implements Policy.
func (p *GDS) Add(e *Entry) {
	e.prio = p.priority(e)
	heap.Push(&p.entries, e)
}

// Touch implements Policy: restore the entry's priority with the current H.
func (p *GDS) Touch(e *Entry) {
	e.prio = p.priority(e)
	heap.Fix(&p.entries, e.heapIdx)
}

// Remove implements Policy.
func (p *GDS) Remove(e *Entry) {
	heap.Remove(&p.entries, e.heapIdx)
}

// Victim implements Policy: the minimum-priority entry; H rises to its
// priority.
func (p *GDS) Victim() *Entry {
	if p.entries.Len() == 0 {
		return nil
	}
	e := heap.Pop(&p.entries).(*Entry)
	p.h = e.prio
	return e
}

type gdsHeap []*Entry

func (h gdsHeap) Len() int            { return len(h) }
func (h gdsHeap) Less(i, j int) bool  { return h[i].prio < h[j].prio }
func (h gdsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *gdsHeap) Push(x interface{}) { e := x.(*Entry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *gdsHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
