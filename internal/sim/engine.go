// Package sim provides the deterministic discrete-event simulation engine
// that the IO-Lite reproduction runs on: a virtual clock, a heap of
// cancelable timers, a cooperative process model in which each process
// runs on a coroutine (iter.Pull) that the engine switches to and back,
// FIFO resources for modelling a CPU, and the calibrated cost model
// approximating the paper's 333 MHz Pentium II testbed.
//
// All simulated activity is single-threaded from the engine's point of view:
// exactly one of {engine, some process} runs at any instant, so simulated
// state needs no locking and every run is reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute instant on the virtual clock, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is re-exported so callers do not need to import time just to
// express simulated durations.
type Duration = time.Duration

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Timer is one scheduled callback: the engine's only event type. Timers
// at equal instants fire in schedule order (seq breaks ties) so runs are
// deterministic. A nil fn means the timer has fired or been canceled; a
// zero seq means it is not queued, so Arm may schedule it again. idx is
// the timer's place in the engine's heap while it is queued, so Reset can
// move it there; 32 bits keep a Timer at four words.
type Timer struct {
	at  Time
	seq uint64
	fn  func()
	idx int32
}

// Cancel stops the timer and reports whether it was still pending (false
// means it already fired or was canceled). Cancel is O(1): the entry stays
// queued and is skipped when it comes due, unless Reset moves it first.
func (t *Timer) Cancel() bool {
	if t.fn == nil {
		return false
	}
	t.fn = nil
	return true
}

// Pending reports whether the timer is still armed.
func (t *Timer) Pending() bool { return t.fn != nil }

// before orders timers by instant, then by schedule order.
func (t *Timer) before(u *Timer) bool {
	return t.at < u.at || t.at == u.at && t.seq < u.seq
}

// timerHeap is a binary min-heap of timers in before order. Every move
// records the timer's new index in it.
type timerHeap []*Timer

func (h *timerHeap) push(t *Timer) {
	*h = append(*h, t)
	h.up(len(*h)-1, t)
}

func (h *timerHeap) pop() *Timer {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		q.down(0, last)
	}
	*h = q
	return top
}

// fix restores heap order around the timer at i after its key changed.
func (h timerHeap) fix(i int) {
	t := h[i]
	if h.up(i, t) == i {
		h.down(i, t)
	}
}

// up places t on the path from slot i toward the root, below the first
// ancestor that is before it, and returns its new index.
func (h timerHeap) up(i int, t *Timer) int {
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = t
	t.idx = int32(i)
	return i
}

// down places t on the path from slot i toward the leaves, at the first
// slot where no child is before it.
func (h timerHeap) down(i int, t *Timer) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(t) {
			break
		}
		h[i] = h[c]
		h[i].idx = int32(i)
		i = c
	}
	h[i] = t
	t.idx = int32(i)
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with New.
type Engine struct {
	now    Time
	events timerHeap
	seq    uint64

	// oldest and newest end the list of live procs in creation order;
	// live counts them.
	oldest, newest *Proc
	live           int
	// idle holds the coroutines of finished procs, for Go to reuse.
	idle []*coro

	// running is the proc currently dispatched (nil in engine context);
	// attribution hooks use it to find whose work is being charged.
	running *Proc
	// closing is set once Close starts: no Run pops a wake any more, so
	// every sleep must switch, and so unwind.
	closing bool
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at instant t and returns its cancelable timer.
// Scheduling in the past panics: it always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) *Timer {
	tm := new(Timer)
	e.schedule(tm, t, fn)
	return tm
}

// Arm schedules a caller-owned timer exactly as At would schedule a new
// one, taking the next seq, so a recycled event fires in the same order
// as a fresh one. Arm only a new timer or one that has fired: a timer
// still queued, pending or canceled, panics.
func (e *Engine) Arm(tm *Timer, t Time, fn func()) {
	if tm.seq != 0 {
		panic(fmt.Sprintf("sim: Arm of a timer still queued for %v", tm.at))
	}
	e.schedule(tm, t, fn)
}

// Reset schedules tm to run fn at instant t, taking the next seq, so it
// fires in the order a fresh timer scheduled at this call would. A timer
// that is not queued (new, fired, or dropped by Close) is armed as Arm
// arms it. A timer still queued, pending or canceled, moves in place to
// its new instant instead: re-keying a timeout that progress pushed back
// allocates nothing and leaves no canceled entry behind to pop.
func (e *Engine) Reset(tm *Timer, t Time, fn func()) {
	if tm.seq == 0 {
		e.schedule(tm, t, fn)
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: timer reset to %v before now %v", t, e.now))
	}
	e.seq++
	tm.at, tm.seq, tm.fn = t, e.seq, fn
	e.events.fix(int(tm.idx))
}

// schedule arms tm to run fn at instant t, taking the next seq.
func (e *Engine) schedule(tm *Timer, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	*tm = Timer{at: t, seq: e.seq, fn: fn}
	e.events.push(tm)
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Step runs the earliest pending event and reports whether one existed. A
// canceled timer still moves the clock to its instant; only its callback
// is skipped. An event that dispatches a proc also carries it through
// every sleep that ends before the next queued event (see
// Proc.SleepUntil): one Step may move the clock past the popped event's
// instant, but never past a queued event.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	tm := e.events.pop()
	e.now = tm.at
	tm.seq = 0 // dequeued: Arm may reuse it, even from its own callback
	if fn := tm.fn; fn != nil {
		tm.fn = nil // a callback that re-arms sees its own timer as fired
		fn()
	}
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Close ends a finished simulation so that it holds no goroutines: it
// drops every pending timer, ends each live proc in creation order,
// unwinding a parked one from its blocking call (its deferred calls run,
// but it can block no more), then ends the coroutines kept for reuse.
// Call it from engine context once Run has returned. An engine dropped
// without Close leaves those as parked goroutines, and a parked proc's
// goroutine keeps the whole engine reachable.
func (e *Engine) Close() {
	e.closing = true
	for p := e.oldest; p != nil; p = e.oldest {
		// Dropping the timers first leaves every wake unarmed, so an
		// unwinding proc's deferred Sleep or Unpark cannot arm a second.
		e.dropTimers()
		e.running = p
		p.co.stop()
		e.running = nil
		p.waiting = false
		e.unlink(p)
	}
	e.dropTimers()
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
}

func (e *Engine) dropTimers() {
	for _, tm := range e.events {
		tm.fn, tm.seq = nil, 0
	}
	e.events = nil
}

// link adds p to the newest end of the live list.
func (e *Engine) link(p *Proc) {
	p.older = e.newest
	if e.newest != nil {
		e.newest.newer = p
	} else {
		e.oldest = p
	}
	e.newest = p
	e.live++
}

// unlink removes a finished or ended proc from the live list.
func (e *Engine) unlink(p *Proc) {
	if p.older != nil {
		p.older.newer = p.newer
	} else {
		e.oldest = p.newer
	}
	if p.newer != nil {
		p.newer.older = p.older
	} else {
		e.newest = p.older
	}
	p.older, p.newer = nil, nil
	e.live--
}

// LiveProcs reports how many simulated processes have been started and have
// not yet returned. Useful for detecting leaked (permanently blocked)
// processes in tests.
func (e *Engine) LiveProcs() int { return e.live }

// Running returns the proc currently executing, or nil when the engine
// itself (an event callback) is running.
func (e *Engine) Running() *Proc { return e.running }
