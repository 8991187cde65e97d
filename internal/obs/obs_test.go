package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"iolite/internal/sim"
)

// --- histogram edge cases ---

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	for name, h := range map[string]*Histogram{"nil": nilH, "empty": NewHistogram()} {
		if h.Count() != 0 || h.Quantile(1) != 0 {
			t.Errorf("%s: count/max = %d/%d, want zeros", name, h.Count(), h.Quantile(1))
		}
		if q := h.Quantile(0.5); q != 0 {
			t.Errorf("%s: Quantile(0.5) = %d, want 0", name, q)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(12345)
	if h.Count() != 1 || h.max != 12345 {
		t.Fatalf("count=%d max=%d, want 1/12345", h.Count(), h.max)
	}
	if got := h.Quantile(1); got != 12345 {
		t.Errorf("Quantile(1) = %d, want exact max 12345", got)
	}
	for _, q := range []float64{0, 0.5, 0.99} {
		got := h.Quantile(q)
		if err := relErr(got, 12345); err > 0.125 {
			t.Errorf("Quantile(%v) = %d, off by %.3f (> bucket bound 0.125)", q, got, err)
		}
	}
}

func relErr(got, want int64) float64 {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// TestHistogramBucketBoundaries pins the two layout properties: values
// below one octave of sub-buckets are exact, and every value's quantile
// error stays within the 1/2^histSubBits bound — including exact
// powers of two, the first value of each octave.
func TestHistogramBucketBoundaries(t *testing.T) {
	for v := int64(0); v < histSubs; v++ {
		h := NewHistogram()
		h.Observe(v)
		if got := h.Quantile(0.5); got != v {
			t.Errorf("small value %d: Quantile = %d, want exact", v, got)
		}
	}
	for _, v := range []int64{histSubs, histSubs + 1, 255, 256, 257, 1 << 10, (1 << 20) - 1, 1 << 20, 1<<40 + 12345} {
		h := NewHistogram()
		h.Observe(v)
		if got := h.Quantile(0.5); relErr(got, v) > 1.0/histSubs {
			t.Errorf("value %d: Quantile = %d, rel err %.4f > %.4f", v, got, relErr(got, v), 1.0/histSubs)
		}
	}
	h := NewHistogram()
	h.Observe(-5) // negatives clamp to zero
	if h.max != 0 || h.Quantile(1) != 0 {
		t.Errorf("negative sample: max=%d q1=%d, want 0/0", h.max, h.Quantile(1))
	}
}

// --- span tiling ---

// TestSpanPhasesTileLatency pins the invariant the whole layer rests on:
// for a finished span the per-phase durations sum exactly to the
// end-to-end latency, stall carving included.
func TestSpanPhasesTileLatency(t *testing.T) {
	c := New()
	s := c.Start("k", 100)
	s.Enter(110, PhaseParse)
	s.Enter(130, PhaseSend)
	s.Stall(5) // carved out of the open send phase at close
	s.Charge(sim.ChargeCopy, 4096)
	s.Finish(150)

	if got, want := s.Latency(), sim.Duration(50); got != want {
		t.Fatalf("latency = %v, want %v", got, want)
	}
	if s.PhaseSum() != s.Latency() {
		t.Fatalf("phase sum %v != latency %v", s.PhaseSum(), s.Latency())
	}
	if d := s.PhaseDur(PhaseAccept); d != 10 {
		t.Errorf("accept = %v, want 10", d)
	}
	if d := s.PhaseDur(PhaseRetransStall); d != 5 {
		t.Errorf("retrans-stall = %v, want the carved 5", d)
	}
	if d := s.PhaseDur(PhaseSend); d != 15 {
		t.Errorf("send = %v, want 20 elapsed minus 5 stall", d)
	}
	if got := s.charges[PhaseSend][sim.ChargeCopy]; got != 4096 {
		t.Errorf("send copy charge = %d, want 4096", got)
	}
	if h := c.Hist("k"); h == nil || h.Count() != 1 {
		t.Error("finished span did not land in the kind histogram")
	}
}

// TestSpanStallClampPreservesTiling over-reports stall: each phase close
// clamps the carve to that phase's elapsed time (the remainder bleeds
// into later phases), so the sum invariant survives bad input and total
// stall never exceeds total elapsed time.
func TestSpanStallClampPreservesTiling(t *testing.T) {
	c := New()
	s := c.Start("k", 0)
	s.Enter(10, PhaseService)
	s.Stall(1_000_000) // far more than will have elapsed
	s.Enter(14, PhaseSend)
	s.Finish(20)
	if s.PhaseSum() != s.Latency() {
		t.Fatalf("phase sum %v != latency %v after clamped stall", s.PhaseSum(), s.Latency())
	}
	if d := s.PhaseDur(PhaseRetransStall); d != 10 {
		t.Errorf("stall = %v, want 10 (service's 4 + send's 6, never more than elapsed)", d)
	}
	if s.PhaseDur(PhaseService) != 0 || s.PhaseDur(PhaseSend) != 0 {
		t.Errorf("service/send = %v/%v, want 0/0 after full carve",
			s.PhaseDur(PhaseService), s.PhaseDur(PhaseSend))
	}
}

func TestSpanAbandonAndNil(t *testing.T) {
	c := New()
	s := c.Start("k", 0)
	s.Enter(5, PhaseParse)
	s.Abandon()
	if c.ActiveSpans() != 0 || len(c.Finished()) != 0 {
		t.Errorf("abandoned span leaked: active=%d finished=%d", c.ActiveSpans(), len(c.Finished()))
	}
	if c.Hist("k") != nil {
		t.Error("abandoned span polluted the kind histogram")
	}
	s.Finish(10) // finishing an abandoned span is a no-op
	if len(c.Finished()) != 0 {
		t.Error("Finish after Abandon resurrected the span")
	}

	// A nil collector hands out nil spans and every method is inert.
	var nc *Collector
	ns := nc.Start("k", 0)
	ns.Enter(1, PhaseSend)
	ns.Stall(1)
	ns.Charge(sim.ChargeCopy, 1)
	ns.Finish(2)
	if ns.ID() != 0 || nc.ActiveSpans() != 0 || nc.Quantile("k", 0.99) != 0 {
		t.Error("nil collector/span not inert")
	}
}

// TestAttachBindsCharges drives the OnCharge hook directly: explicit
// span bindings, Bound fixed-phase bindings, and the no-binding case.
func TestAttachBindsCharges(t *testing.T) {
	eng := sim.New()
	costs := sim.DefaultCosts()
	c := New()
	c.Attach(eng, costs)
	if costs.OnCharge == nil {
		t.Fatal("Attach left no hook on the cost model")
	}

	s := c.Start("k", 0)
	s.Enter(0, PhaseSend)
	costs.OnCharge(sim.ChargeCopy, 100, s)
	costs.OnCharge(sim.ChargeWire, 7, Bound{Span: s, Ph: PhaseWorker})
	costs.OnCharge(sim.ChargeCopy, 9, nil) // no running proc, no binding: dropped
	if got := s.charges[PhaseSend][sim.ChargeCopy]; got != 100 {
		t.Errorf("send copy = %d, want 100", got)
	}
	if got := s.charges[PhaseWorker][sim.ChargeWire]; got != 7 {
		t.Errorf("worker wire = %d, want 7 via Bound", got)
	}
}

func TestCollectorLookupAndReset(t *testing.T) {
	c := New()
	s := c.Start("k", 0)
	if c.Lookup(s.ID()) != s {
		t.Error("Lookup failed to resolve an active span")
	}
	if c.Lookup(0) != nil || c.Lookup(9999) != nil {
		t.Error("Lookup resolved an id it should not")
	}
	s.Finish(10)
	if c.Lookup(s.ID()) != nil {
		t.Error("Lookup resolved a finished span")
	}
	s2 := c.Start("k", 20)
	c.ResetMeters()
	if len(c.Finished()) != 0 || c.Hist("k") != nil {
		t.Error("ResetMeters left finished state behind")
	}
	if c.Lookup(s2.ID()) != s2 {
		t.Error("ResetMeters killed an open span; open spans must keep running")
	}
	s2.Finish(30)
	if h := c.Hist("k"); h == nil || h.Count() != 1 {
		t.Error("span finished after reset did not aggregate")
	}
}

func TestWriteTraceValidJSON(t *testing.T) {
	c := New()
	s := c.Start("flash-lite", 1000)
	s.Enter(1500, PhaseParse)
	s.AddRemote("wkr", 1600, 1800)
	s.Finish(2000)
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var kinds, requests, remotes int
	for _, ev := range tf.TraceEvents {
		switch ev["name"] {
		case "thread_name":
			kinds++
		case "request":
			requests++
		case "worker@wkr":
			remotes++
		}
	}
	if kinds == 0 || requests != 1 || remotes != 1 {
		t.Errorf("trace events: %d thread_name, %d request, %d remote; want ≥1/1/1", kinds, requests, remotes)
	}

	buf.Reset()
	var nc *Collector
	if err := nc.WriteTrace(&buf); err != nil {
		t.Fatalf("nil collector WriteTrace: %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil collector trace is not valid JSON: %v", err)
	}
}

func TestResetSet(t *testing.T) {
	var s ResetSet
	n := 0
	s.Add(resetFunc(func() { n++ }), nil, resetFunc(func() { n += 10 }))
	if len(s.rs) != 2 {
		t.Fatalf("%d resetters registered, want 2 (nil skipped)", len(s.rs))
	}
	s.Reset()
	s.Reset()
	if n != 22 {
		t.Errorf("resets ran %d units of work, want 22", n)
	}
}

// resetFunc adapts a bare function to the Resetter seam.
type resetFunc func()

func (f resetFunc) ResetMeters() { f() }
