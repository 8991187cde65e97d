package sim

import "fmt"

// Proc is a simulated process: a goroutine that runs in lock-step with the
// engine. At any instant exactly one of {engine, one proc} executes, with
// synchronous hand-off in both directions, so simulated code never races and
// every interleaving is deterministic.
//
// Simulated code running inside the proc may call the blocking operations
// (Sleep, SleepUntil, Park) and anything built on them. Engine-side code
// (event callbacks) may call Unpark.
type Proc struct {
	eng  *Engine
	name string

	// resume carries control from the engine to the proc; parked carries it
	// back. Both are unbuffered: each send is a synchronous hand-off.
	resume chan struct{}
	parked chan struct{}

	dead bool // set when the proc function has returned

	// parkSeq counts Park calls, letting Unpark detect stale wakeups.
	parkSeq uint64
	waiting bool

	// attrib is an opaque attribution binding (the observability layer
	// stores the active span here); it rides the proc so charge hooks can
	// find whose request is paying for the work.
	attrib interface{}
}

// Go starts fn as a simulated process at the current instant. fn runs on its
// own goroutine but only while the engine is suspended waiting for it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	e.procs[p] = struct{}{}
	go func() {
		<-p.resume // wait for first dispatch
		fn(p)
		p.dead = true
		delete(e.procs, p)
		p.parked <- struct{}{} // final hand-off back to the engine
	}()
	// First dispatch happens as a regular event so that Go can be called
	// from engine or proc context alike.
	e.After(0, func() { p.dispatch() })
	return p
}

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// SetAttrib binds an opaque attribution context to the proc (nil clears).
func (p *Proc) SetAttrib(v interface{}) { p.attrib = v }

// Attrib returns the proc's attribution binding, nil if none.
func (p *Proc) Attrib() interface{} { return p.attrib }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// dispatch hands control to the proc and waits for it to park or finish.
// Must be called from engine context.
func (p *Proc) dispatch() {
	if p.dead {
		return
	}
	prev := p.eng.running
	p.eng.running = p
	p.resume <- struct{}{}
	<-p.parked
	p.eng.running = prev
}

// yield parks the proc and returns control to the engine. The proc resumes
// when something calls dispatch again. Must be called from proc context.
func (p *Proc) yield() {
	p.parked <- struct{}{}
	<-p.resume
}

// SleepUntil blocks the proc until instant t.
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.now {
		return
	}
	p.eng.At(t, func() { p.dispatch() })
	p.yield()
}

// Sleep blocks the proc for duration d.
func (p *Proc) Sleep(d Duration) { p.SleepUntil(p.eng.now.Add(d)) }

// Park blocks the proc indefinitely until another party calls Unpark.
// It returns the instant at which the proc was resumed.
func (p *Proc) Park() Time {
	p.parkSeq++
	p.waiting = true
	p.yield()
	p.waiting = false
	return p.eng.now
}

// Unpark schedules p to resume at the current instant. It is a no-op if p is
// not currently parked (e.g. already woken); this makes wake-up notification
// idempotent, which waitqueue users rely on. May be called from engine or
// proc context.
func (p *Proc) Unpark() {
	if p.dead || !p.waiting {
		return
	}
	seq := p.parkSeq
	p.waiting = false // claim the wakeup so duplicate Unparks are no-ops
	p.eng.After(0, func() {
		if p.dead || p.parkSeq != seq {
			return
		}
		p.dispatch()
	})
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
	released := w.q[:n]
	w.q = append([]*Proc(nil), w.q[n:]...)
	for _, p := range released {
		p.Unpark()
	}
	return n
}

// Len reports how many procs are parked on the queue.
func (w *WaitQueue) Len() int { return len(w.q) }

// String describes the proc for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
