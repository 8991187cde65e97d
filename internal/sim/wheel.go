package sim

// Wheel is the tick-rounding front end on the engine's timer queue: the
// shared timing substrate that netsim's retransmit and delayed-ack timers,
// the proxy's retry backoff sleep, and obs's periodic samplers hang off.
// As on a kernel timer wheel, every due time rounds up to a DefaultTick
// boundary — an RTO, a delayed ack, or a backoff delay is a coarse bound,
// not an instant. A wheel timer is an ordinary engine Timer, so Cancel (a
// data segment carried the ack) is O(1), and Reset (the ack moved the
// window) re-keys it in O(log n).
type Wheel struct{ eng *Engine }

// DefaultTick is the wheel's granularity: rounding delays a timer by at
// most one tick, so the 1 ms first RTO is off by at most 5%, and the 200 µs
// minimum RTO by at most 25%.
const DefaultTick = 50 * Microsecond

// Microsecond and Millisecond re-export the time units for wheel-tick and
// timeout arithmetic.
const (
	Microsecond = Duration(1000)
	Millisecond = Duration(1000000)
)

// Wheel returns the engine's shared timer wheel.
func (e *Engine) Wheel() Wheel { return Wheel{e} }

// due rounds at up to the first tick boundary at or after it, and past
// now, so a due-now timer fires on the next boundary.
func (w Wheel) due(at Time) Time {
	const tick = Time(DefaultTick)
	t := (at + tick - 1) / tick * tick
	if t <= w.eng.now {
		t = (w.eng.now/tick + 1) * tick
	}
	return t
}

// Schedule arms fn to fire d from now (rounded up to a tick boundary) and
// returns its timer. Engine or proc context.
func (w Wheel) Schedule(d Duration, fn func()) *Timer {
	return w.ScheduleAt(w.eng.now.Add(d), fn)
}

// ScheduleAt arms fn to fire at instant at (rounded up to a tick boundary).
func (w Wheel) ScheduleAt(at Time, fn func()) *Timer {
	return w.eng.At(w.due(at), fn)
}

// Reset re-keys tm to fire fn d from now, rounded up to a tick boundary
// like Schedule; see Engine.Reset. A timeout pushed back on every bit of
// progress (an RTO, a delayed ack) is one caller-owned timer moved in
// place, allocating nothing.
func (w Wheel) Reset(tm *Timer, d Duration, fn func()) {
	w.eng.Reset(tm, w.due(w.eng.now.Add(d)), fn)
}

// Sleep parks p for d, rounded up to a tick boundary like a timer — the
// backoff primitive.
func (w Wheel) Sleep(p *Proc, d Duration) {
	p.SleepUntil(w.due(p.eng.now.Add(d)))
}
