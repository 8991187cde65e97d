// Package obs is the simulated-clock observability layer: request
// lifecycle spans with typed phases, per-phase cost attribution fed by
// the sim.CostModel charge hook, log-scale latency histograms, periodic
// time-series samplers on the shared timer wheel, and Chrome
// trace-event export.
//
// Everything is nil-receiver safe: instrumented code calls span methods
// unconditionally, and a nil *Collector hands out nil *Spans, so the
// whole layer costs one nil check per site when observability is off.
// The paper's argument is about where time goes inside a request —
// copies, checksums, kernel crossings, protocol work, stalls — and this
// package is how the reproduction answers that per request instead of
// machine-wide.
package obs

import (
	"sort"

	"iolite/internal/sim"
)

// Phase is one typed segment of a request's lifecycle. Phases tile the
// span's timeline — at any instant exactly one phase is open — so the
// per-phase durations sum exactly to the end-to-end latency.
type Phase uint8

const (
	// PhaseAccept: connection accepted, request not yet readable.
	PhaseAccept Phase = iota
	// PhaseParse: reading and parsing the request head.
	PhaseParse
	// PhaseCacheLookup: file/document cache probe and open.
	PhaseCacheLookup
	// PhaseSend: writing the response (copy, ref, or splice path).
	PhaseSend
	// PhaseDispatch: writing fcgi records (BEGIN/PARAMS/STDIN) or the
	// proxy's origin fetch toward a backend.
	PhaseDispatch
	// PhaseService: awaiting the worker's (or origin's) response.
	PhaseService
	// PhaseWorker: work executing on the worker machine itself. Client
	// spans never Enter this phase — it exists so worker-side charges
	// bin separately from the client's Service wait (see Bound).
	PhaseWorker
	// PhaseRetransStall: time carved out of other phases where progress
	// was blocked on loss recovery (retransmit timers, go-back-N).
	PhaseRetransStall
	// PhaseBackoff: deliberate retry backoff sleeps.
	PhaseBackoff
	// PhaseOther: anything not yet classified.
	PhaseOther

	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"accept", "parse", "cache-lookup", "send", "dispatch",
	"service", "worker", "retrans-stall", "backoff", "other",
}

// String names the phase as it appears in traces and reports.
func (ph Phase) String() string {
	if int(ph) < len(phaseNames) {
		return phaseNames[ph]
	}
	return "?"
}

// RemoteMark records a remote machine's service interval inside a span.
// Marks are annotations, not phases: the client-side timeline already
// accounts for the same wall-clock interval (as PhaseService), so marks
// are excluded from the phase sum to avoid double counting.
type RemoteMark struct {
	Host  string
	Start sim.Time
	End   sim.Time
}

// segment is one contiguous phase interval, kept for trace export.
type segment struct {
	ph       Phase
	from, to sim.Time
}

// Span is one request's lifecycle. Create with Collector.Start; a nil
// span is inert (every method is a no-op), which is how instrumentation
// stays unconditional.
type Span struct {
	id   uint32
	kind string
	col  *Collector

	start, end sim.Time
	cur        Phase
	curSince   sim.Time
	// pendingStall is stall time reported against the open phase but
	// not yet carved out; clamped to the phase's elapsed time when the
	// phase closes so the tiling sum stays exact.
	pendingStall sim.Duration

	durs    [NumPhases]sim.Duration
	charges [NumPhases][sim.NumChargeKinds]int64
	segs    []segment
	remotes []RemoteMark
	done    bool

	// tenant tags the span with the principal it serves (multi-tenant
	// QoS attribution); empty when unattributed.
	tenant string
}

// ID returns the span's trace id (0 for a nil span), the value that
// travels in fcgi record headers across machines.
func (s *Span) ID() uint32 {
	if s == nil {
		return 0
	}
	return s.id
}

// Kind returns the server kind the span was started under.
func (s *Span) Kind() string {
	if s == nil {
		return ""
	}
	return s.kind
}

// closePhase ends the open phase at instant now, carving out any
// pending stall time.
func (s *Span) closePhase(now sim.Time) {
	el := now.Sub(s.curSince)
	if st := s.pendingStall; st > 0 {
		if st > el {
			st = el
		}
		s.pendingStall -= st
		s.durs[PhaseRetransStall] += st
		el -= st
		if st > 0 {
			s.segs = append(s.segs, segment{ph: PhaseRetransStall, from: now.Add(-st), to: now})
			now = now.Add(-st)
		}
	}
	s.durs[s.cur] += el
	if el > 0 {
		s.segs = append(s.segs, segment{ph: s.cur, from: s.curSince, to: now})
	}
}

// Enter transitions the span into phase ph at instant now, closing the
// phase that was open.
func (s *Span) Enter(now sim.Time, ph Phase) {
	if s == nil || s.done {
		return
	}
	s.closePhase(now)
	s.cur = ph
	s.curSince = now
}

// Stall reports d of the currently open phase as retransmit-stall time.
// The carve happens when the phase closes and is clamped to the phase's
// elapsed time, preserving the exact phase-sum invariant.
func (s *Span) Stall(d sim.Duration) {
	if s == nil || s.done || d <= 0 {
		return
	}
	s.pendingStall += d
}

// Charge bins n units of kind k into the open phase.
func (s *Span) Charge(k sim.ChargeKind, n int64) {
	if s == nil || s.done {
		return
	}
	s.charges[s.cur][k] += n
}

// ChargeTo bins n units of kind k into a fixed phase regardless of the
// open one — how worker-side procs attribute their work to PhaseWorker
// while the client side of the same span sits in PhaseService.
func (s *Span) ChargeTo(ph Phase, k sim.ChargeKind, n int64) {
	if s == nil || s.done {
		return
	}
	s.charges[ph][k] += n
}

// AddRemote annotates the span with a remote machine's service interval.
func (s *Span) AddRemote(host string, start, end sim.Time) {
	if s == nil || s.done {
		return
	}
	s.remotes = append(s.remotes, RemoteMark{Host: host, Start: start, End: end})
}

// Remotes returns the span's remote service marks.
func (s *Span) Remotes() []RemoteMark {
	if s == nil {
		return nil
	}
	return s.remotes
}

// Finish ends the span at instant now and folds it into the collector's
// histograms and phase totals.
func (s *Span) Finish(now sim.Time) {
	if s == nil || s.done {
		return
	}
	s.closePhase(now)
	s.end = now
	s.done = true
	s.col.finish(s)
}

// Abandon discards an unfinished span — a connection that died before
// its request completed, or a response aborted mid-send — without
// folding it into the histograms or phase totals.
func (s *Span) Abandon() {
	if s == nil || s.done {
		return
	}
	s.done = true
	delete(s.col.active, s.id)
}

// Latency returns the span's end-to-end duration (finished spans only).
func (s *Span) Latency() sim.Duration {
	if s == nil {
		return 0
	}
	return s.end.Sub(s.start)
}

// PhaseDur returns the accumulated duration of one phase.
func (s *Span) PhaseDur(ph Phase) sim.Duration {
	if s == nil {
		return 0
	}
	return s.durs[ph]
}

// PhaseSum returns the sum of all phase durations — equal to Latency
// for a finished span (the tiling invariant the acceptance test pins).
func (s *Span) PhaseSum() sim.Duration {
	if s == nil {
		return 0
	}
	var sum sim.Duration
	for _, d := range s.durs {
		sum += d
	}
	return sum
}

// PhaseCharge returns the units of kind k binned into phase ph.
func (s *Span) PhaseCharge(ph Phase, k sim.ChargeKind) int64 {
	if s == nil {
		return 0
	}
	return s.charges[ph][k]
}

// Bound fixes a span's charge attribution to one phase. Stored as a
// worker proc's attribution binding so the charge hook bins that proc's
// work into PhaseWorker (or any fixed phase) instead of the phase the
// client side currently has open.
type Bound struct {
	Span *Span
	Ph   Phase
}

// samplePoint is one reading of a periodic sampler.
type samplePoint struct {
	at sim.Time
	v  float64
}

// sampleSeries is one named time series.
type sampleSeries struct {
	name string
	pts  []samplePoint
}

// Collector owns every span, histogram, and sampler of one run. The
// zero value is not usable; a nil collector is (it hands out nil spans).
type Collector struct {
	eng    *sim.Engine
	nextID uint32

	active map[uint32]*Span
	done   []*Span
	// maxDone caps retained finished spans; histograms and phase totals
	// keep aggregating past the cap.
	maxDone int
	dropped int64

	hists     map[string]*Histogram
	phaseTot  [NumPhases]sim.Duration
	chargeTot [NumPhases][sim.NumChargeKinds]int64

	series []*sampleSeries
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		active:  make(map[uint32]*Span),
		hists:   make(map[string]*Histogram),
		maxDone: 1 << 17,
	}
}

// Attach wires the collector into an engine and one or more cost
// models: every metered charge is binned into the active span's phase.
// The active span resolves from an explicit binding when the charging
// site supplied one (the netsim pump), else from the running proc's
// attribution binding. Cost models shared between machines need only
// one Attach.
func (c *Collector) Attach(eng *sim.Engine, costs ...*sim.CostModel) {
	if c == nil {
		return
	}
	c.eng = eng
	hook := func(k sim.ChargeKind, n int64, bind interface{}) {
		if bind == nil {
			if p := eng.Running(); p != nil {
				bind = p.Attrib()
			}
		}
		switch b := bind.(type) {
		case *Span:
			b.Charge(k, n)
		case Bound:
			b.Span.ChargeTo(b.Ph, k, n)
		}
	}
	for _, cm := range costs {
		cm.OnCharge = hook
	}
}

// Start opens a span of the given server kind at instant now. A nil
// collector returns a nil (inert) span.
func (c *Collector) Start(kind string, now sim.Time) *Span {
	if c == nil {
		return nil
	}
	c.nextID++
	s := &Span{
		id:       c.nextID,
		kind:     kind,
		col:      c,
		start:    now,
		cur:      PhaseAccept,
		curSince: now,
	}
	c.active[s.id] = s
	return s
}

// Lookup resolves a trace id back to its active span — how a worker
// machine, handed an id through an fcgi record header, lands its
// service time in the client request's trace. Nil for unknown ids and
// nil collectors.
func (c *Collector) Lookup(id uint32) *Span {
	if c == nil || id == 0 {
		return nil
	}
	return c.active[id]
}

// finish moves a span from active to done and aggregates it.
func (c *Collector) finish(s *Span) {
	delete(c.active, s.id)
	c.histFor(s.kind).Observe(int64(s.Latency()))
	for ph := Phase(0); ph < NumPhases; ph++ {
		c.phaseTot[ph] += s.durs[ph]
		for k := 0; k < int(sim.NumChargeKinds); k++ {
			c.chargeTot[ph][k] += s.charges[ph][k]
		}
	}
	if len(c.done) < c.maxDone {
		c.done = append(c.done, s)
	} else {
		c.dropped++
	}
}

// histFor returns the latency histogram for one server kind.
func (c *Collector) histFor(kind string) *Histogram {
	h := c.hists[kind]
	if h == nil {
		h = NewHistogram()
		c.hists[kind] = h
	}
	return h
}

// Hist returns the latency histogram for one server kind (nil if that
// kind never finished a span).
func (c *Collector) Hist(kind string) *Histogram {
	if c == nil {
		return nil
	}
	return c.hists[kind]
}

// Kinds lists the server kinds that finished at least one span, sorted.
func (c *Collector) Kinds() []string {
	if c == nil {
		return nil
	}
	ks := make([]string, 0, len(c.hists))
	for k := range c.hists {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Quantile returns the q-quantile end-to-end latency over every
// finished span of one kind (0 if none).
func (c *Collector) Quantile(kind string, q float64) sim.Duration {
	if c == nil {
		return 0
	}
	h := c.hists[kind]
	if h == nil {
		return 0
	}
	return sim.Duration(h.Quantile(q))
}

// Finished returns the retained finished spans.
func (c *Collector) Finished() []*Span {
	if c == nil {
		return nil
	}
	return c.done
}

// ActiveSpans reports how many spans are open.
func (c *Collector) ActiveSpans() int {
	if c == nil {
		return 0
	}
	return len(c.active)
}

// PhaseTotal returns the accumulated duration of one phase across every
// finished span.
func (c *Collector) PhaseTotal(ph Phase) sim.Duration {
	if c == nil {
		return 0
	}
	return c.phaseTot[ph]
}

// ChargeTotal returns the accumulated units of kind k binned into phase
// ph across every finished span.
func (c *Collector) ChargeTotal(ph Phase, k sim.ChargeKind) int64 {
	if c == nil {
		return 0
	}
	return c.chargeTot[ph][k]
}

// SampleEvery registers a periodic sampler: fn is read every interval
// on the engine's shared wheel until instant until, and the series is
// exported as a counter track in the trace. The explicit horizon keeps
// the engine's event loop able to drain (a self-rescheduling timer with
// no horizon would run the simulation forever).
func (c *Collector) SampleEvery(name string, every sim.Duration, until sim.Time, fn func(now sim.Time) float64) {
	if c == nil || c.eng == nil {
		return
	}
	ser := &sampleSeries{name: name}
	c.series = append(c.series, ser)
	w := c.eng.Wheel()
	var tick func()
	tick = func() {
		now := c.eng.Now()
		ser.pts = append(ser.pts, samplePoint{at: now, v: fn(now)})
		if now.Add(every) <= until {
			w.Schedule(every, tick)
		}
	}
	w.Schedule(every, tick)
}

// Series returns a registered sampler's readings as (instant, value)
// pairs, nil if the name is unknown.
func (c *Collector) Series(name string) (ts []sim.Time, vs []float64) {
	if c == nil {
		return nil, nil
	}
	for _, ser := range c.series {
		if ser.name == name {
			for _, pt := range ser.pts {
				ts = append(ts, pt.at)
				vs = append(vs, pt.v)
			}
			return ts, vs
		}
	}
	return nil, nil
}

// ResetMeters implements the Resetter seam: it discards finished spans,
// histograms, phase totals, and sampler readings, so measurement starts
// clean at a warmup boundary. Open spans keep running.
func (c *Collector) ResetMeters() {
	if c == nil {
		return
	}
	c.done = c.done[:0]
	c.dropped = 0
	c.hists = make(map[string]*Histogram)
	c.phaseTot = [NumPhases]sim.Duration{}
	c.chargeTot = [NumPhases][sim.NumChargeKinds]int64{}
	for _, ser := range c.series {
		ser.pts = ser.pts[:0]
	}
}
