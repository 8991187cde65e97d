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
