package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: its body runs on a coroutine (iter.Pull) in
// lock-step with the engine. At any instant exactly one of {engine, one
// proc} executes: the engine switches to the proc's coroutine to run it,
// and the proc switches back when it blocks, except on a sleep that ends
// before every queued event, which moves the clock and runs on (see
// SleepUntil). So simulated code never races and every interleaving is
// deterministic.
//
// Simulated code running inside the proc may call the blocking operations
// (Sleep, SleepUntil, Park) and anything built on them. Engine-side code
// (event callbacks) may call Unpark. Nothing may call Step or Run from proc
// context. A panic inside a proc surfaces from Engine.Run, on the goroutine
// that called it.
type Proc struct {
	eng  *Engine
	name string
	fn   func(*Proc)

	// co runs fn; once fn returns, the engine keeps co for the next Go.
	co *coro

	// wake is the proc's one reusable wake-up event: its first dispatch,
	// the end of a sleep, or an Unpark. run is dispatch, bound once.
	wake Timer
	run  func()

	// waiting is set while the proc is parked with no wake claimed.
	waiting bool

	// older and newer link the engine's live procs in creation order.
	older, newer *Proc

	// attrib is an opaque attribution binding (the observability layer
	// stores the active span here); it rides the proc so charge hooks can
	// find whose request is paying for the work.
	attrib interface{}
}

// coro is a coroutine that runs one proc body after another. next resumes
// the current proc until it suspends (done false) or its body returns
// (done true); the coroutine then idles until Go hands it the next proc.
// Reuse spares each Go a coroutine's set-up, and the race detector a
// goroutine context: Go 1.24's race runtime never releases the context of
// an exited coroutine.
type coro struct {
	p     *Proc
	next  func() (done, ok bool)
	stop  func()
	yield func(done bool) bool
}

// closed is the panic a suspended proc's yield raises when Engine.Close
// ends it; runBody recovers it.
type closed struct{}

func newCoro() *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(bool) bool) {
		c.yield = yield
		for c.runBody() && yield(true) {
		}
	})
	return c
}

// runBody runs the current proc's body and reports whether it returned
// rather than being ended by Engine.Close.
func (c *coro) runBody() (returned bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(closed); !ok {
				panic(r)
			}
		}
	}()
	c.p.fn(c.p)
	return true
}

// Go starts fn as a simulated process at the current instant. fn runs on a
// coroutine, only while the engine is suspended waiting for it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	if n := len(e.idle); n > 0 {
		p.co = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		p.co = newCoro()
	}
	p.co.p = p
	p.run = p.dispatch
	e.link(p)
	// First dispatch happens as a regular event so that Go can be called
	// from engine or proc context alike.
	p.arm(e.now)
	return p
}

// SetAttrib binds an opaque attribution context to the proc (nil clears).
func (p *Proc) SetAttrib(v interface{}) { p.attrib = v }

// Attrib returns the proc's attribution binding, nil if none.
func (p *Proc) Attrib() interface{} { return p.attrib }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// arm schedules the proc's wake at t. A proc has at most one pending wake:
// a sleeping proc is not waiting, and Unpark claims the wake.
func (p *Proc) arm(t Time) {
	if p.wake.fn != nil {
		panic(fmt.Sprintf("sim: %v armed a second wake", p))
	}
	p.eng.schedule(&p.wake, t, p.run)
}

// dispatch runs the proc until it parks or finishes. Must be called from
// engine context: it is the proc's wake callback. A panic in the proc
// surfaces here, on the engine's goroutine.
func (p *Proc) dispatch() {
	e := p.eng
	e.running = p
	done, _ := p.co.next()
	e.running = nil
	if done {
		e.unlink(p)
		p.co.p = nil // an idle coroutine keeps no proc, nor its engine, alive
		e.idle = append(e.idle, p.co)
		p.co = nil
	}
}

// suspend returns control to the engine until the proc's wake fires. Must
// be called from proc context. Once Engine.Close has ended the proc, it
// unwinds the proc instead.
func (p *Proc) suspend() {
	if !p.co.yield(false) {
		panic(closed{})
	}
}

// SleepUntil blocks the proc until instant t. When the proc is the one
// running and t is strictly before the earliest queued event, its wake
// would be the next event Run pops, so the proc does not leave: it takes
// the seq the wake would have taken, moves the clock to t and returns,
// with no timer queued and no coroutine switch. The test is strict
// because a queued event at t holds an older seq and so fires first. Any
// other sleep yields: one that ties the head, one that meets an empty
// queue (so a lone proc still switches once per sleep, and a Step stays
// bounded), one called from outside the proc, and one that Close unwinds.
func (p *Proc) SleepUntil(t Time) {
	e := p.eng
	if t < e.now {
		return
	}
	if e.running == p && !e.closing && len(e.events) > 0 && t < e.events[0].at {
		e.seq++
		e.now = t
		return
	}
	p.arm(t)
	p.suspend()
}

// Sleep blocks the proc for duration d.
func (p *Proc) Sleep(d Duration) { p.SleepUntil(p.eng.now.Add(d)) }

// Park blocks the proc indefinitely until another party calls Unpark.
// It returns the instant at which the proc was resumed.
func (p *Proc) Park() Time {
	p.waiting = true
	p.suspend()
	return p.eng.now
}

// Unpark schedules p to resume at the current instant. It is a no-op if p is
// not currently parked (e.g. already woken); this makes wake-up notification
// idempotent, which waitqueue users rely on. May be called from engine or
// proc context.
func (p *Proc) Unpark() {
	if !p.waiting {
		return
	}
	p.waiting = false // claim the wakeup so duplicate Unparks are no-ops
	p.arm(p.eng.now)
}

// WaitQueue is a FIFO list of parked processes, the building block for all
// simulated blocking abstractions (pipe buffers, socket queues, condition
// variables).
type WaitQueue struct {
	q []*Proc
}

// Wait parks the calling proc on the queue until Wake releases it.
func (w *WaitQueue) Wait(p *Proc) {
	w.q = append(w.q, p)
	p.Park()
}

// Wake releases up to n waiters in FIFO order and reports how many were
// released. Wake(-1) releases all.
func (w *WaitQueue) Wake(n int) int {
	if n < 0 || n > len(w.q) {
		n = len(w.q)
	}
	// Unpark only arms a wake, so nothing re-enters the queue meanwhile.
	for _, p := range w.q[:n] {
		p.Unpark()
	}
	rest := copy(w.q, w.q[n:])
	clear(w.q[rest:])
	w.q = w.q[:rest]
	return n
}

// String describes the proc for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
