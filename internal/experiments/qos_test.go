package experiments

import (
	"math"
	"testing"
	"time"
)

// The QoS acceptance pin: with 1 aggressor offering ≥10× one tenant's
// fair rate among 1000 well-behaved tenants, enforcement holds the victim
// p99 within 30% of its no-aggressor baseline and cuts the aggressor's
// goodput — while on a uniform population enforcement moves kreq/s by at
// most 5% vs QoS off.
func TestQoSIsolationAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-leg 1000-tenant run")
	}
	run := func(aggressor, qos bool) QoSResult {
		return RunQoS(QoSParams{
			Tenants:   1000,
			Aggressor: aggressor,
			QoS:       qos,
			Warmup:    250 * time.Millisecond,
			Measure:   1 * time.Second,
		})
	}
	uniformOff := run(false, false)
	uniformOn := run(false, true)
	aggrOff := run(true, false)
	aggrOn := run(true, true)
	t.Logf("uniform off: %.2f kreq/s p99 %.0fµs", uniformOff.KReqPerSec, uniformOff.VictimP99Us)
	t.Logf("uniform on:  %.2f kreq/s p99 %.0fµs", uniformOn.KReqPerSec, uniformOn.VictimP99Us)
	t.Logf("aggr off:    victim p99 %.0fµs, agg %.2f kreq/s", aggrOff.VictimP99Us, aggrOff.AggKReqPerSec)
	t.Logf("aggr on:     victim p99 %.0fµs, agg %.2f kreq/s, sheds %d, throttles %d, offered %.0f×",
		aggrOn.VictimP99Us, aggrOn.AggKReqPerSec, aggrOn.Sheds, aggrOn.Throttles, aggrOn.AggOfferedX)

	// The aggressor must really be adversarial: ≥10× a tenant's fair rate.
	if aggrOn.AggOfferedX < 10 {
		t.Fatalf("aggressor offered only %.1f× fair rate, want ≥10×", aggrOn.AggOfferedX)
	}
	// Isolation: victim p99 under attack within 30% of its enforced
	// no-aggressor baseline.
	if limit := uniformOn.VictimP99Us * 1.30; aggrOn.VictimP99Us > limit {
		t.Errorf("victim p99 %.0fµs under aggressor exceeds 1.3× baseline %.0fµs",
			aggrOn.VictimP99Us, uniformOn.VictimP99Us)
	}
	// Enforcement must actually be doing something against this load.
	if aggrOn.Sheds+aggrOn.Throttles == 0 {
		t.Error("QoS-on aggressor leg recorded no sheds or throttles")
	}
	// And the attack must be the thing enforcement fixes: without it the
	// victim tail visibly degrades (else the scenario proves nothing).
	if aggrOff.VictimP99Us < 2*uniformOff.VictimP99Us {
		t.Errorf("aggressor barely moved victim p99 (%.0fµs vs %.0fµs baseline) — scenario too weak",
			aggrOff.VictimP99Us, uniformOff.VictimP99Us)
	}
	// Overhead: enforcement moves a uniform population's kreq/s by at
	// most 5% either way — a large gain would mean QoS changed the
	// workload, not merely policed it.
	if ovh := (uniformOff.KReqPerSec - uniformOn.KReqPerSec) / uniformOff.KReqPerSec; math.Abs(ovh) > 0.05 {
		t.Errorf("enforcement overhead %.1f%%: %.2f kreq/s with QoS on vs %.2f off, want within ±5%%",
			100*ovh, uniformOn.KReqPerSec, uniformOff.KReqPerSec)
	}
	// Containment: the aggressor's own goodput falls once QoS is on.
	if aggrOn.AggKReqPerSec >= aggrOff.AggKReqPerSec {
		t.Errorf("aggressor goodput %.2f → %.2f kreq/s with QoS on; want it contained",
			aggrOff.AggKReqPerSec, aggrOn.AggKReqPerSec)
	}
}

// The uniform QoS-on leg must not shed well-behaved tenants: everyone is
// inside their allowance, so admission control should be invisible.
func TestQoSUniformNoSheds(t *testing.T) {
	r := RunQoS(QoSParams{
		Tenants: 300,
		QoS:     true,
		Warmup:  150 * time.Millisecond,
		Measure: 500 * time.Millisecond,
	})
	if r.Sheds != 0 || r.Throttles != 0 {
		t.Errorf("uniform load shed: sheds %d throttles %d", r.Sheds, r.Throttles)
	}
	if r.Requests == 0 {
		t.Error("no requests completed")
	}
}
