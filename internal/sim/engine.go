// Package sim provides the deterministic discrete-event simulation engine
// that the IO-Lite reproduction runs on: a virtual clock, an event heap, a
// cooperative process model with synchronous hand-off, FIFO resources for
// modelling a CPU, and the calibrated cost model approximating the paper's
// 333 MHz Pentium II testbed.
//
// All simulated activity is single-threaded from the engine's point of view:
// exactly one of {engine, some process} runs at any instant, so simulated
// state needs no locking and every run is reproducible.
package sim

import (
	"container/heap"
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

// event is a scheduled callback. Events at equal instants fire in schedule
// order (seq breaks ties) so runs are deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with New.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool

	// procs tracks live simulated processes for leak diagnostics.
	procs map[*Proc]struct{}

	// running is the proc currently dispatched (nil in engine context);
	// attribution hooks use it to find whose work is being charged.
	running *Proc

	// wheel is the engine's shared timer wheel, created on first use (see
	// Engine.Wheel in wheel.go).
	wheel *Wheel
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at instant t. Scheduling in the past panics: it
// always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Step runs the earliest pending event and reports whether one existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps not after t, then sets the clock
// to t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// LiveProcs reports how many simulated processes have been started and have
// not yet returned. Useful for detecting leaked (permanently blocked)
// processes in tests.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// Running returns the proc currently executing, or nil when the engine
// itself (an event callback) is running.
func (e *Engine) Running() *Proc { return e.running }
