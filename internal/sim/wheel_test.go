package sim

import (
	"testing"
	"time"
)

// TestWheelFiresInOrder pins basic ordering: timers fire in expiry order,
// each at exactly its requested delay (every delay here is a tick
// boundary).
func TestWheelFiresInOrder(t *testing.T) {
	eng := New()
	w := eng.Wheel()
	var order []int
	delays := []Duration{5 * time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	timers := make([]*Timer, len(delays))
	for i, d := range delays {
		i, d := i, d
		timers[i] = w.Schedule(d, func() {
			order = append(order, i)
			if got := eng.Now(); got != Time(d) {
				t.Errorf("timer %d fired at %v, want exactly %v", i, got, d)
			}
		})
	}
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("fire order = %v, want [1 2 0]", order)
	}
	for i, tm := range timers {
		if tm.Pending() {
			t.Errorf("timer %d still pending after drain", i)
		}
	}
}

// TestWheelCancel pins that a canceled timer never fires and that Cancel
// reports whether it was in time.
func TestWheelCancel(t *testing.T) {
	eng := New()
	w := eng.Wheel()
	fired := false
	tm := w.Schedule(2*time.Millisecond, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel of a pending timer returned false")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	afterFired := false
	after := w.Schedule(time.Millisecond, func() { afterFired = true })
	eng.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if tm.Pending() {
		t.Fatal("canceled timer still pending")
	}
	if !afterFired || after.Pending() {
		t.Fatalf("uncanceled timer: fired %v, pending %v after Run", afterFired, after.Pending())
	}
}

// TestWheelCoarseLevels pins that timers far out — the delays a
// hierarchical wheel would park in its coarse levels — fire at exactly
// their expiry.
func TestWheelCoarseLevels(t *testing.T) {
	eng := New()
	w := eng.Wheel()
	delays := []Duration{
		time.Millisecond,
		100 * time.Millisecond,
		time.Second,
		30 * time.Second,
	}
	fired := make([]Time, len(delays))
	timers := make([]*Timer, len(delays))
	for i, d := range delays {
		i := i
		timers[i] = w.Schedule(d, func() { fired[i] = eng.Now() })
	}
	eng.Run()
	for i, d := range delays {
		if fired[i] == 0 {
			t.Fatalf("timer %d (%v) never fired", i, d)
		}
		if fired[i] != Time(d) {
			t.Errorf("timer %d fired at %v, want exactly %v", i, fired[i], d)
		}
		if timers[i].Pending() {
			t.Errorf("timer %d still pending after firing", i)
		}
	}
}

// TestWheelSameBoundaryScheduleOrder pins that timers due at one tick
// boundary fire in the order they were scheduled, however far out each
// was armed: a 10 ms timer, then a 3 ms timer armed at 7 ms, both due at
// 10 ms, fire first-armed first.
func TestWheelSameBoundaryScheduleOrder(t *testing.T) {
	eng := New()
	w := eng.Wheel()
	var order []string
	w.Schedule(10*time.Millisecond, func() { order = append(order, "A") })
	w.Schedule(7*time.Millisecond, func() {
		w.Schedule(3*time.Millisecond, func() { order = append(order, "B") })
	})
	eng.Run()
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("fire order = %v, want [A B]", order)
	}
	if eng.Now() != Time(10*time.Millisecond) {
		t.Fatalf("fired at %v, want 10ms", eng.Now())
	}
}

// TestWheelRoundsUpToBoundary pins the rounding rule: a due time moves to
// the first tick boundary at or after it, and always past now.
func TestWheelRoundsUpToBoundary(t *testing.T) {
	cases := []struct {
		name    string
		armAt   Time     // instant the timer is scheduled
		d       Duration // Schedule delay
		wantDue Time
	}{
		{"off boundary rounds up", 0, 120 * Microsecond, Time(150 * Microsecond)},
		{"on boundary stays", Time(30 * Microsecond), 170 * Microsecond, Time(200 * Microsecond)},
		{"zero delay on boundary waits a tick", Time(100 * Microsecond), 0, Time(150 * Microsecond)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New()
			w := eng.Wheel()
			var firedAt Time = -1
			eng.At(c.armAt, func() {
				w.Schedule(c.d, func() { firedAt = eng.Now() })
			})
			eng.Run()
			if firedAt != c.wantDue {
				t.Fatalf("armed at %v with delay %v: fired at %v, want %v", c.armAt, c.d, firedAt, c.wantDue)
			}
		})
	}
}

// TestWheelSleep pins the backoff primitive: Sleep parks the proc for d
// rounded up to a tick boundary.
func TestWheelSleep(t *testing.T) {
	eng := New()
	w := eng.Wheel()
	var woke Time
	eng.Go("sleeper", func(p *Proc) {
		w.Sleep(p, 3*time.Millisecond)
		woke = p.Now()
	})
	eng.Run()
	if woke != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want exactly the 3ms boundary", woke)
	}
	if eng.LiveProcs() != 0 {
		t.Fatalf("%d procs leaked", eng.LiveProcs())
	}
}

// TestWheelRescheduleDuringFire pins that a callback may arm new timers
// (the retransmit-backoff shape: each firing schedules the next).
func TestWheelRescheduleDuringFire(t *testing.T) {
	eng := New()
	w := eng.Wheel()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			w.Schedule(time.Millisecond, step)
		}
	}
	w.Schedule(time.Millisecond, step)
	eng.Run()
	if count != 5 {
		t.Fatalf("chained firings = %d, want 5", count)
	}
}
