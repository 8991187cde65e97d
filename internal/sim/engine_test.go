package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	at := Time(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

// TestEngineTimerCancel pins that every engine event is a cancelable
// timer: a canceled callback never runs (though the clock still reaches
// its instant), and Cancel after firing reports false.
func TestEngineTimerCancel(t *testing.T) {
	e := New()
	canceledRan, keptRan := false, false
	canceled := e.At(Time(2*time.Millisecond), func() { canceledRan = true })
	kept := e.After(time.Millisecond, func() { keptRan = true })
	if !canceled.Pending() || !canceled.Cancel() {
		t.Fatal("Cancel of a pending timer failed")
	}
	if canceled.Pending() || canceled.Cancel() {
		t.Fatal("canceled timer still cancelable")
	}
	e.Run()
	if canceledRan {
		t.Fatal("canceled callback ran")
	}
	if !keptRan || kept.Pending() {
		t.Fatalf("kept timer: ran %v, pending %v", keptRan, kept.Pending())
	}
	if kept.Cancel() {
		t.Fatal("Cancel after firing returned true")
	}
	if e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("Now = %v, want 2ms (a canceled timer still moves the clock)", e.Now())
	}
}

// TestEngineArmReuseAllocatesNothing pins that a caller-owned timer
// re-armed from its own callback costs the engine no allocation.
func TestEngineArmReuseAllocatesNothing(t *testing.T) {
	e := New()
	var tm Timer
	n := 0
	var fire func()
	fire = func() {
		if n++; n%10 != 0 {
			e.Arm(&tm, e.Now().Add(time.Microsecond), fire)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Arm(&tm, e.Now(), fire)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("re-arming a timer from its callback allocated %.1f times per run, want 0", allocs)
	}
	if n != 1010 {
		t.Fatalf("callback ran %d times, want 1010", n)
	}
}

// TestEngineArmPanicsOnQueuedTimer pins that Arm refuses a timer the
// queue still holds: pending, or canceled but not yet popped.
func TestEngineArmPanicsOnQueuedTimer(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Arm of a %s timer did not panic", what)
			}
		}()
		f()
	}
	e := New()
	var tm Timer
	e.Arm(&tm, Time(time.Millisecond), func() {})
	mustPanic("pending", func() { e.Arm(&tm, Time(2*time.Millisecond), func() {}) })
	tm.Cancel()
	mustPanic("canceled but queued", func() { e.Arm(&tm, Time(2*time.Millisecond), func() {}) })
	e.Run()
	fired := false
	e.Arm(&tm, e.Now(), func() { fired = true }) // popped: free to reuse
	e.Run()
	if !fired {
		t.Fatal("a timer re-armed after its canceled entry popped never fired")
	}
}

// TestEngineArmOrder pins Arm against At's order: caller-owned and
// engine-allocated timers, interleaved at random and many at one
// instant, fire in (instant, call order), as TestEngineHeapOrder's
// stable-sort oracle says. A timer that re-arms itself at its own
// instant takes its seq at that call, behind every timer already queued.
func TestEngineArmOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := New()
	type ev struct {
		at  Time
		idx int
	}
	var want, got []ev
	owned := make([]Timer, 2000)
	for i := range owned {
		at := Time(rng.Intn(300))
		if i%3 == 0 {
			at = 150 // a crowded instant
		}
		fn := func() { got = append(got, ev{e.Now(), i}) }
		var tm *Timer
		if rng.Intn(2) == 0 {
			tm = &owned[i]
			e.Arm(tm, at, fn)
		} else {
			tm = e.At(at, fn)
		}
		if rng.Intn(4) == 0 {
			tm.Cancel()
			continue
		}
		want = append(want, ev{at, i})
	}
	slices.SortStableFunc(want, func(a, b ev) int { return int(a.at - b.at) })
	var again Timer
	e.Arm(&again, 150, func() {
		got = append(got, ev{e.Now(), -1})
		e.Arm(&again, e.Now(), func() { got = append(got, ev{e.Now(), -2}) })
	})
	last := slices.IndexFunc(want, func(x ev) bool { return x.at > 150 })
	want = slices.Insert(want, last, ev{150, -1}, ev{150, -2})
	e.Run()
	if !slices.Equal(got, want) {
		t.Fatalf("fired %d timers out of (instant, call) order", len(got))
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Time(1), func() {})
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(42*time.Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcParkUnpark(t *testing.T) {
	e := New()
	var order []string
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		order = append(order, "park")
		p.Park()
		order = append(order, "woken")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "wake")
		waiter.Unpark()
	})
	e.Run()
	want := []string{"park", "wake", "woken"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestUnparkIdempotent(t *testing.T) {
	e := New()
	wakes := 0
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		p.Park()
		wakes++
		p.Sleep(10 * time.Second) // still parked-free when dup wakeups fire
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		waiter.Unpark()
		waiter.Unpark()
		waiter.Unpark()
	})
	e.Run()
	if wakes != 1 {
		t.Fatalf("proc woke %d times, want 1", wakes)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := New()
	var wq WaitQueue
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			wq.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if len(wq.q) != 4 {
			t.Errorf("Len = %d, want 4", len(wq.q))
		}
		wq.Wake(2)
		p.Sleep(time.Millisecond)
		wq.Wake(-1)
	})
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
	if len(wq.q) != 0 {
		t.Fatalf("queue not drained: %d", len(wq.q))
	}
}

func TestResourceFIFOSerialization(t *testing.T) {
	e := New()
	cpu := NewResource(e, "cpu")
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			cpu.Use(p, 10*time.Millisecond)
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if u := cpu.Utilization(); u < 0.99 || u > 1.0 {
		t.Fatalf("Utilization = %v, want ≈1", u)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := New()
	r := NewResource(e, "disk")
	e.Go("a", func(p *Proc) {
		r.Use(p, 5*time.Millisecond)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(100 * time.Millisecond) // arrive long after r idle
		t0 := p.Now()
		r.Use(p, 5*time.Millisecond)
		if p.Now().Sub(t0) != 5*time.Millisecond {
			t.Errorf("service after idle took %v, want 5ms", p.Now().Sub(t0))
		}
	})
	e.Run()
	if u := r.Utilization(); u > 0.15 {
		t.Fatalf("Utilization = %v, want ≈0.095", u)
	}
}

func TestCostModelArithmetic(t *testing.T) {
	c := DefaultCosts()
	if got := c.Copy(1000); got != time.Duration(1000*c.CopyPSPerByte/1000) {
		t.Fatalf("Copy(1000) = %v", got)
	}
	if c.Copy(0) != 0 || c.Cksum(0) != 0 {
		t.Fatal("zero-byte costs must be zero")
	}
	if c.Copy(1) <= 0 {
		t.Fatal("per-byte copy cost rounds to zero; use picosecond units")
	}
	if c.Cksum(4096) >= c.Copy(4096) {
		t.Fatal("checksum should be cheaper than copy")
	}
	if c.DiskTransfer(1<<20) <= 0 {
		t.Fatal("disk transfer cost missing")
	}
}

func TestNestedGoFromProc(t *testing.T) {
	e := New()
	hits := 0
	e.Go("outer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Go("inner", func(q *Proc) {
			q.Sleep(time.Millisecond)
			hits++
		})
		p.Sleep(5 * time.Millisecond)
		hits++
	})
	e.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// runUntil steps e through every event at or before t, then sets the clock
// to t, so a test can look at a run between its phases. A Step that
// dispatches a proc may carry it through sleeps past t that end before the
// next queued event; the clock then stays where that proc left it.
func runUntil(e *Engine, t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	e.now = max(e.now, t)
}
