package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"iolite/internal/sim"
)

// hostNonCounters are the Host fields ResetMeters must NOT touch:
// identity, wiring, configuration, and the recycled ack records. Every other field is required to
// be an int64 counter that ResetMeters zeroes — so adding a counter to
// Host without adding it to ResetMeters (the bug class this test
// hunts: a stale warmup value silently inflating every measured window)
// fails this test, as does adding a non-counter field without
// classifying it here.
var hostNonCounters = map[string]bool{
	"Name":     true,
	"eng":      true,
	"costs":    true,
	"cpu":      true,
	"vm":       true,
	"ck":       true,
	"offload":  true,
	"superSeg": true,
	"faults":   true,
	"records":  true,
}

// TestResetNetStatsCoversEveryCounter poisons every counter field of a
// Host via reflection and asserts ResetMeters returns them all to
// zero, leaving the non-counter fields alone.
func TestResetNetStatsCoversEveryCounter(t *testing.T) {
	eng := sim.New()
	h := NewHost(eng, sim.DefaultCosts(), "h", true, nil, nil)
	h.SetOffload(true)

	v := reflect.ValueOf(h).Elem()
	ty := v.Type()
	var counters []string
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if hostNonCounters[f.Name] {
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Host.%s is %v: classify it in hostNonCounters or make it an int64 counter",
				f.Name, f.Type)
		}
		// Unexported fields need the unsafe route to poison.
		fv := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		fv.SetInt(7)
		counters = append(counters, f.Name)
	}
	if len(counters) < 10 {
		t.Fatalf("found only %d counter fields %v — reflection walk broken?", len(counters), counters)
	}

	h.ResetMeters()

	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if hostNonCounters[f.Name] {
			continue
		}
		fv := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		if got := fv.Int(); got != 0 {
			t.Errorf("ResetMeters left Host.%s = %d, want 0", f.Name, got)
		}
	}

	// And the configuration survived the reset.
	if !h.Offload() {
		t.Error("ResetMeters disturbed configuration state")
	}
}
