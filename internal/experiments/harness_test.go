package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestRunClosesEngine pins that a finished run holds no goroutines: the
// harness closes its engine once Run returns, ending the procs still
// parked then (listeners, idle workers, connection readers). Every live
// proc is one suspended coroutine, so an unchanged goroutine count means
// no proc outlived its run.
func TestRunClosesEngine(t *testing.T) {
	runs := []struct {
		name string
		run  func()
	}{
		{"fcginet sock-local", func() {
			RunFCGINet(FCGINetParams{
				Placement: PlaceSockLocal,
				Workers:   2,
				Depth:     4,
				Ref:       true,
				Warmup:    10 * time.Millisecond,
				Measure:   50 * time.Millisecond,
			})
		}},
		{"chaos", func() {
			RunChaos(ChaosParams{
				LossProb:  0.01,
				KillEvery: 20 * time.Millisecond,
				Replay:    true,
				Warmup:    10 * time.Millisecond,
				Measure:   50 * time.Millisecond,
			})
		}},
	}
	for _, r := range runs {
		before := runtime.NumGoroutine()
		r.run()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines before the run, %d after", r.name, before, after)
		}
	}
}
