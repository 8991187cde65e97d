package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"
)

// TestProcSleepAllocatesNothing pins that a Sleep round trip — engine to
// proc and back, through the proc's own wake timer — allocates nothing.
func TestProcSleepAllocatesNothing(t *testing.T) {
	e := New()
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	e.Step() // first dispatch: the proc starts and sleeps
	if n := testing.AllocsPerRun(100, func() { e.Step() }); n != 0 {
		t.Fatalf("Sleep round trip allocates %v, want 0", n)
	}
	e.Close()
}

// TestProcSleepBeforeNextEventSkipsSwitch pins when a sleep resumes without
// leaving the proc: only when it ends strictly before the earliest queued
// event. A sleep to that event's instant yields, and so does one that
// finds the queue empty, so a lone sleeper still takes a Step per sleep.
func TestProcSleepBeforeNextEventSkipsSwitch(t *testing.T) {
	t.Run("before queued event", func(t *testing.T) {
		e := New()
		defer e.Close()
		fired, done := false, false
		e.At(Time(time.Millisecond), func() { fired = true })
		allocs := -1.0
		e.Go("sleeper", func(p *Proc) {
			// AllocsPerRun adds a warm-up call: 100 sleeps in all.
			allocs = testing.AllocsPerRun(99, func() { p.Sleep(time.Microsecond) })
			done = true
		})
		e.Step()
		if !done || e.Now() != Time(100*time.Microsecond) || fired {
			t.Fatalf("after one Step: done %v at %v, timer fired %v; want done at 100µs, timer queued",
				done, e.Now(), fired)
		}
		if allocs != 0 {
			t.Fatalf("a sleep that skips the switch allocates %v, want 0", allocs)
		}
		e.Run()
		if !fired || e.Now() != Time(time.Millisecond) {
			t.Fatalf("timer fired %v, clock %v; want fired at 1ms", fired, e.Now())
		}
	})
	t.Run("tie with queued event", func(t *testing.T) {
		e := New()
		defer e.Close()
		var order []string
		at := Time(time.Millisecond)
		e.At(at, func() { order = append(order, "timer") })
		e.Go("sleeper", func(p *Proc) {
			p.SleepUntil(at)
			order = append(order, "sleeper")
		})
		steps := 0
		for e.Step() {
			steps++
		}
		if want := []string{"timer", "sleeper"}; !slices.Equal(order, want) || steps != 3 {
			t.Fatalf("ran %v in %d Steps, want %v in 3", order, steps, want)
		}
	})
	t.Run("empty queue", func(t *testing.T) {
		e := New()
		defer e.Close()
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		steps := 0
		for e.Step() {
			steps++
		}
		if steps != 6 || e.Now() != Time(5*time.Microsecond) {
			t.Fatalf("lone sleeper took %d Steps to %v, want 6 to 5µs", steps, e.Now())
		}
	})
}

// TestProcParkUnparkAllocatesNothing pins that a Park/Unpark round trip
// allocates nothing.
func TestProcParkUnparkAllocatesNothing(t *testing.T) {
	e := New()
	parks := 0
	waiter := e.Go("waiter", func(p *Proc) {
		for {
			p.Park()
			parks++
		}
	})
	e.Step()
	if n := testing.AllocsPerRun(100, func() {
		waiter.Unpark()
		e.Step()
	}); n != 0 {
		t.Fatalf("Park/Unpark round trip allocates %v, want 0", n)
	}
	if parks != 101 { // AllocsPerRun adds one warm-up call
		t.Fatalf("proc resumed %d times, want 101", parks)
	}
	e.Close()
}

// TestWaitQueueWakeAllocatesNothing pins that a warm Wait/Wake(1) cycle
// reuses the queue's backing array.
func TestWaitQueueWakeAllocatesNothing(t *testing.T) {
	e := New()
	var wq WaitQueue
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			for {
				wq.Wait(p)
			}
		})
	}
	e.Run()
	if n := testing.AllocsPerRun(100, func() {
		wq.Wake(1)
		e.Step()
	}); n != 0 {
		t.Fatalf("Wait/Wake(1) cycle allocates %v, want 0", n)
	}
	if len(wq.q) != 3 {
		t.Fatalf("Len = %d, want 3", len(wq.q))
	}
	e.Close()
}

// TestWaitQueueWakeClearsVacatedTail pins that a partial Wake shifts the
// remaining waiters down in place without keeping the released procs
// reachable from the backing array.
func TestWaitQueueWakeClearsVacatedTail(t *testing.T) {
	e := New()
	var wq WaitQueue
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) { wq.Wait(p) })
	}
	e.Run()
	if got := wq.Wake(2); got != 2 || len(wq.q) != 3 {
		t.Fatalf("Wake(2) = %d leaving %d, want 2 leaving 3", got, len(wq.q))
	}
	if tail := wq.q[:cap(wq.q)][len(wq.q):]; slices.ContainsFunc(tail, func(p *Proc) bool { return p != nil }) {
		t.Fatal("Wake left released procs in the vacated tail")
	}
	e.Close()
}

// TestProcIdleCoroutineDoesNotPinEngine pins that an engine whose procs
// have all finished becomes garbage even without Close: the coroutine it
// keeps for reuse holds no reference back to it.
func TestProcIdleCoroutineDoesNotPinEngine(t *testing.T) {
	e := New()
	e.Go("done", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Run()
	ref := weak.Make(e)
	e = nil
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a finished engine is still reachable from its idle coroutine")
	}
}

// TestProcSecondWakePanics pins the one-wake rule: arming a proc whose
// wake is already pending is a modelling bug.
func TestProcSecondWakePanics(t *testing.T) {
	e := New()
	p := e.Go("p", func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("arming a second wake did not panic")
		}
		e.Close()
	}()
	p.arm(e.Now()) // Go already armed the first dispatch
}

// TestProcPanicSurfacesFromRun pins that a panic inside a proc comes out
// of Engine.Run on the caller's goroutine with the proc's own value.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := New()
	e.Go("doomed", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run panicked with %v, want the proc's value", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned normally")
	}()
	if e.Now() != Time(time.Millisecond) {
		t.Fatalf("Now = %v, want 1ms", e.Now())
	}
	// The dead coroutine is not reused: the next proc gets a fresh one.
	ran := false
	e.Go("next", func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("a proc started after the panic never ran")
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Close, want 0", e.LiveProcs())
	}
}

// TestProcReusesFinishedCoroutine pins that a finished proc's coroutine
// runs the next Go: a hundred procs in turn share one goroutine, which
// Close ends.
func TestProcReusesFinishedCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	ran := 0
	for i := 0; i < 100; i++ {
		e.Go("turn", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
		e.Run()
	}
	if extra := runtime.NumGoroutine() - before; ran != 100 || extra != 1 {
		t.Fatalf("%d procs ran on %d goroutines, want 100 on 1", ran, extra)
	}
	e.Close()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestEngineCloseEndsParkedProcs pins Close: every pending timer is
// dropped, every live proc — sleeping, parked, or never dispatched —
// unwinds in creation order with its deferred calls run, a deferred Sleep
// or Unpark in an unwinding proc neither blocks nor trips the one-wake
// rule, and no goroutine is left behind.
func TestEngineCloseEndsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	var unwound []string
	var wq WaitQueue
	var parked *Proc
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		defer p.Sleep(time.Second) // its pending wake was dropped
		defer func() {
			// Arms the wakes of two younger procs Close has yet to end.
			parked.Unpark()
			wq.Wake(-1)
		}()
		p.Sleep(time.Hour)
		t.Error("sleeper resumed")
	})
	parked = e.Go("parked", func(p *Proc) {
		defer func() { unwound = append(unwound, "parked") }()
		p.Park()
		t.Error("parked proc resumed")
	})
	e.Go("waiter", func(p *Proc) {
		defer func() { unwound = append(unwound, "waiter") }()
		defer p.Sleep(time.Second)
		wq.Wait(p)
		t.Error("waiter resumed")
	})
	fired := false
	e.After(2*time.Hour, func() { fired = true })
	runUntil(e, Time(time.Millisecond))
	e.Go("unstarted", func(p *Proc) {
		t.Error("unstarted proc ran")
	})
	if e.LiveProcs() != 4 {
		t.Fatalf("LiveProcs = %d before Close, want 4", e.LiveProcs())
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Close, want 0", e.LiveProcs())
	}
	if want := []string{"sleeper", "parked", "waiter"}; !slices.Equal(unwound, want) {
		t.Fatalf("unwound %v, want creation order %v", unwound, want)
	}
	e.Run()
	if fired {
		t.Fatal("a timer pending at Close fired")
	}
	e.Close() // idempotent
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestEngineCloseSleepStillUnwinds pins that a deferred sleep in a proc
// that Close unwinds still blocks, and so unwinds, even when it ends
// before a queued event: no Run pops its wake, so it must not resume
// without a switch.
func TestEngineCloseSleepStillUnwinds(t *testing.T) {
	e := New()
	resumed := false
	e.Go("parked", func(p *Proc) {
		defer func() {
			e.After(time.Hour, func() {})
			p.Sleep(time.Microsecond)
			resumed = true
		}()
		p.Park()
	})
	e.Run()
	e.Close()
	if resumed || e.Now() != 0 {
		t.Fatalf("deferred sleep resumed %v with the clock at %v; want unwound at 0", resumed, e.Now())
	}
}

// TestEngineHeapOrder pins the timer heap against a sort: timers from At
// and Arm at random instants, some canceled, some re-keyed by Reset
// earlier or later while pending, canceled but queued, or fired, fire in
// (instant, schedule order). A Reset is a schedule call: the timer's old
// entry vanishes and it fires once, at its new instant, in the order of
// that call.
func TestEngineHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	type ev struct {
		at    Time
		order int // the schedule call that armed it
	}
	var got, want []ev
	owned := make([]Timer, 1000)
	timers := make([]*Timer, 0, 2000)
	armed := map[*Timer]ev{} // queued and pending, as the oracle sees it
	order := 0
	arm := func(tm *Timer, at Time, how int) {
		order++
		o := order
		fn := func() { got = append(got, ev{e.Now(), o}) }
		switch how {
		case 0:
			tm = e.At(at, fn)
			timers = append(timers, tm)
		case 1:
			e.Arm(tm, at, fn)
			timers = append(timers, tm)
		default:
			e.Reset(tm, at, fn)
		}
		armed[tm] = ev{at, o}
	}
	// moves counts Resets by the timer's state (pending, canceled but
	// queued, or fired) and direction (earlier or later than its old
	// instant).
	moves := map[string]int{}
	ops := func(n int, from Time) {
		for i := 0; i < n; i++ {
			at := from + Time(rng.Intn(300))
			if i%5 == 0 {
				at = from + 150 // a crowded instant
			}
			switch k := rng.Intn(10); {
			case k < 3 || len(timers) == 0:
				arm(nil, at, 0)
			case k < 5 && len(timers) < len(owned):
				arm(&owned[len(timers)], at, 1)
			case k < 7:
				tm := timers[rng.Intn(len(timers))]
				if tm.Cancel() {
					delete(armed, tm)
				}
			default:
				tm := timers[rng.Intn(len(timers))]
				state := "fired"
				if _, ok := armed[tm]; ok {
					state = "pending"
				} else if tm.seq != 0 {
					state = "canceled"
				}
				dir := "later"
				if at < tm.at {
					dir = "earlier"
				}
				moves[state+" "+dir]++
				arm(tm, at, 2)
			}
		}
	}
	// fire runs the engine to instant until, and adds what the oracle says
	// fires by then to want.
	fire := func(until Time) {
		var due []ev
		for tm, x := range armed {
			if x.at <= until {
				due = append(due, x)
				delete(armed, tm)
			}
		}
		slices.SortFunc(due, func(a, b ev) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return a.order - b.order
		})
		want = append(want, due...)
		runUntil(e, until)
	}
	ops(2000, 0)
	fire(150)
	ops(2000, 150)
	fire(1000)
	if !slices.Equal(got, want) {
		t.Fatalf("fired %d timers out of (instant, schedule order); want %d", len(got), len(want))
	}
	// A fired timer's old instant is in the past, so it only moves later.
	for _, m := range []string{"pending earlier", "pending later", "canceled earlier", "canceled later", "fired later"} {
		if moves[m] == 0 {
			t.Errorf("no Reset moved a timer %s", m)
		}
	}
}

// TestProcWakeOrder pins proc wakes to the engine's event order. Procs
// that sleep for 0, to a crowded instant and at random, use a shared
// Resource, and park until a timer unparks them run among timers that
// At, Arm, Reset and Cancel schedule from engine and proc context. Each
// wake, a proc's or a timer's, records the instant and the seq its
// schedule call took, so the fired sequence rises strictly only if no
// sleep that resumes without a switch passes or ties a queued event.
func TestProcWakeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := New()
	defer e.Close()
	type ev struct {
		at  Time
		seq uint64
	}
	var fired []ev
	cpu := NewResource(e, "cpu")
	// crowded is the next instant, now or later, that many wakes share.
	crowded := func() Time { return (e.now + 99) / 100 * 100 }
	owned := make([]Timer, 200)
	var timers []*Timer
	pending := map[*Timer]bool{} // armed and not canceled, as the test sees it
	// schedule arms tm (a new one if nil) at a random or crowded instant
	// by At, Arm or Reset; fn runs when it fires.
	schedule := func(tm *Timer, how int, fn func()) *Timer {
		at := e.now + Time(rng.Intn(300))
		if rng.Intn(3) == 0 {
			at = crowded()
		}
		var seq uint64
		fire := func() {
			fired = append(fired, ev{e.now, seq})
			delete(pending, tm)
			if fn != nil {
				fn()
			}
		}
		switch how {
		case 0:
			tm = e.At(at, fire)
		case 1:
			e.Arm(tm, at, fire)
		default:
			e.Reset(tm, at, fire)
		}
		seq = tm.seq
		pending[tm] = true
		return tm
	}
	var spawn func()
	timerOp := func() {
		switch k := rng.Intn(10); {
		case k < 3 || len(timers) == 0:
			timers = append(timers, schedule(nil, 0, spawn))
		case k < 5 && len(timers) < len(owned):
			timers = append(timers, schedule(&owned[len(timers)], 1, nil))
		case k < 7:
			if tm := timers[rng.Intn(len(timers))]; tm.Cancel() {
				delete(pending, tm)
			}
		default:
			schedule(timers[rng.Intn(len(timers))], 2, nil)
		}
	}
	procs, finished := 0, 0
	spawn = func() {
		if procs == 12 || rng.Intn(4) != 0 {
			return
		}
		procs++
		seq := e.seq + 1 // the first dispatch's
		e.Go("p", func(p *Proc) {
			fired = append(fired, ev{e.now, seq})
			for i := 0; i < 80; i++ {
				seq = e.seq + 1 // what this iteration's sleep or Unpark takes
				switch rng.Intn(6) {
				case 0:
					p.Sleep(0)
				case 1:
					p.SleepUntil(crowded())
				case 2:
					p.Sleep(Duration(rng.Intn(300)))
				case 3:
					cpu.Use(p, Duration(rng.Intn(60)))
				case 4:
					schedule(nil, 0, func() {
						seq = e.seq + 1
						p.Unpark()
					})
					p.Park()
				default:
					timerOp()
					continue
				}
				fired = append(fired, ev{e.now, seq})
			}
			finished++
		})
	}
	for procs < 4 {
		spawn()
	}
	for i := 0; i < 50; i++ {
		timerOp()
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if a, b := fired[i-1], fired[i]; b.at < a.at || b.at == a.at && b.seq <= a.seq {
			t.Fatalf("wake %d of %d at (%v, seq %d) fired after (%v, seq %d)", i, len(fired), b.at, b.seq, a.at, a.seq)
		}
	}
	if finished != procs || procs < 8 || len(pending) != 0 {
		t.Fatalf("%d of %d procs finished, %d timers still pending; want all of 8 or more, none", finished, procs, len(pending))
	}
}

// TestEngineResetAllocatesNothing pins that re-keying a queued timer,
// pending or canceled, moves it in place without allocating, and that it
// then fires once, at its last instant.
func TestEngineResetAllocatesNothing(t *testing.T) {
	e := New()
	var tm Timer
	var others [16]Timer
	fired, last := 0, Time(0)
	fn := func() { fired, last = fired+1, e.Now() }
	nop := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		now := e.Now()
		for i := range others {
			e.Arm(&others[i], now.Add(Duration(i+1)), nop)
		}
		for d := 1; d <= 20; d++ {
			e.Reset(&tm, now.Add(Duration(d%7*3)), fn) // earlier and later among the others
			if d%5 == 0 {
				tm.Cancel()
			}
		}
		e.Reset(&tm, now.Add(40), fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("re-keying a queued timer allocated %.1f times per run, want 0", allocs)
	}
	if fired != 101 || last != 101*40 {
		t.Fatalf("timer fired %d times, last at %v; want 101, at %v", fired, last, Time(101*40))
	}
}

// TestConcurrentEngines runs independent engines from several goroutines
// at once: each must produce the same transcript as a lone run, and the
// race detector must find nothing shared between them.
func TestConcurrentEngines(t *testing.T) {
	transcript := func() string {
		e := New()
		defer e.Close()
		var wq WaitQueue
		cpu := NewResource(e, "cpu")
		var log []string
		for i := 0; i < 4; i++ {
			e.Go(fmt.Sprint("worker", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					wq.Wait(p)
					cpu.Use(p, time.Duration(1+i)*time.Microsecond)
					log = append(log, fmt.Sprintf("%v %v", p, p.Now()))
				}
			})
		}
		e.Go("kicker", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Sleep(3 * time.Microsecond)
				wq.Wake(1 + j%2)
			}
		})
		e.Go("idle", func(p *Proc) { p.Park() }) // left for Close
		e.Run()
		return fmt.Sprint(log)
	}
	want := transcript()
	var wg sync.WaitGroup
	got := make([]string, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = transcript()
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != want {
			t.Fatalf("engine %d diverged from the lone run", g)
		}
	}
}
