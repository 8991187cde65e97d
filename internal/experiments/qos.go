package experiments

import (
	"fmt"
	"time"

	"iolite/internal/fcgi"
	"iolite/internal/kernel"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The multi-tenant QoS study: thousands of well-behaved tenants share one
// fcgi pool over a loopback socket transport, and one adversarial heavy
// hitter floods it with zero-think closed loops. Measured: what the flood
// does to a victim's p99 (isolation), what enforcement costs when nobody
// misbehaves (overhead), and where the aggressor's excess goes (sheds).
// Enforcement is the fcgi pool's: admission control (per-tenant in-flight
// share bound + request-rate bucket) and tenant-aware routing.

// The QoS testbed. The pool has qosWorkers workers of mux depth qosDepth
// serving qosDocBytes documents after a qosAppDelay backend wait. Each
// well-behaved tenant thinks qosThink between requests, and tenant start
// instants are staggered across it. The aggressor drives qosAggressorLoops
// zero-think closed loops. With QoS on, each tenant may hold qosMaxShare
// requests in flight and is admitted qosReqRate requests/sec with a
// qosReqBurst burst: 2× a tenant's fair rate at qosThink, far below the
// p99 sample fraction.
const (
	qosWorkers        = 4
	qosDepth          = 16
	qosDocBytes       = 4 << 10
	qosAppDelay       = 200 * time.Microsecond
	qosThink          = 400 * time.Millisecond
	qosAggressorLoops = 32
	qosMaxShare       = 2
	qosReqRate        = 5
	qosReqBurst       = 3
)

// QoSParams describes one multi-tenant run.
type QoSParams struct {
	// Tenants is the well-behaved tenant population (default 1000), one
	// closed-loop requester each.
	Tenants int
	// Aggressor adds one heavy-hitter tenant driving qosAggressorLoops
	// zero-think closed loops that retry immediately after a shed (with a
	// jittered ~2 ms backoff so a shed storm can't wedge simulated time).
	Aggressor bool
	// QoS enables pool admission control. Off, the pool is one
	// strictly-FIFO shared pool.
	QoS bool

	Warmup  time.Duration
	Measure time.Duration

	// Obs, when set, traces every request through the pool.
	Obs *obs.Collector
}

// QoSResult is one run's outcome.
type QoSResult struct {
	Label string
	// KReqPerSec is total completed requests (victims + aggressor) per
	// second, in thousands.
	KReqPerSec float64
	// VictimP50Us / VictimP99Us are the well-behaved tenants' latency
	// percentiles over the measure window, in microseconds.
	VictimP50Us float64
	VictimP99Us float64
	// VictimKReqPerSec is the well-behaved population's completion rate.
	VictimKReqPerSec float64
	// AggKReqPerSec is the aggressor's goodput (admitted and completed).
	AggKReqPerSec float64
	// AggOfferedX is the aggressor's offered load as a multiple of one
	// well-behaved tenant's fair rate (0 without an aggressor).
	AggOfferedX float64
	Requests    int64
	// Sheds / Throttles are admission refusals over the measure window
	// (in-flight share, rate bucket); ShedsPerReq normalizes by
	// completed requests.
	Sheds       int64
	Throttles   int64
	ShedsPerReq float64
	CPUUtil     float64
}

// aggTenant is the heavy hitter's tenant name.
const aggTenant = "aggressor"

// RunQoS executes one multi-tenant QoS experiment.
func RunQoS(fp QoSParams) QoSResult {
	orDefault(&fp.Tenants, 1000)
	orDefault(&fp.Warmup, 300*time.Millisecond)
	orDefault(&fp.Measure, 1200*time.Millisecond)

	b := newBed(fp.Obs, fp.Warmup, fp.Measure)
	m := kernel.NewMachine(b.eng, b.costs, kernel.Config{})
	srv := m.NewProcess("qos-srv", 2<<20)
	m.Host.SetOffload(true)

	var qcfg *fcgi.QoSConfig
	tenants := obs.NewTenants()
	if fp.QoS {
		qcfg = &fcgi.QoSConfig{
			MaxShare: qosMaxShare,
			ReqRate:  qosReqRate,
			ReqBurst: qosReqBurst,
			Meters:   tenants,
		}
	}

	// The pool rides a loopback socket transport (not a pipe) so the
	// netsim send pump is in the measured path.
	pool := docPool(fcgi.PoolConfig{
		Machine:         m,
		Server:          srv,
		Workers:         qosWorkers,
		Depth:           qosDepth,
		Ref:             true,
		Transport:       fcgi.NewLoopbackTransport(m, srv, true),
		TypicalResponse: qosDocBytes,
		Name:            "qw",
		Obs:             fp.Obs,
		QoS:             qcfg,
	}, qosDocBytes, qosAppDelay)
	params := []byte(fmt.Sprintf("/doc/%d", qosDocBytes))

	// The well-behaved population: one closed loop per tenant, thinking
	// qosThink between requests (and after a shed: a tenant over its
	// allowance just thinks again), start instants staggered across one
	// think interval so the population doesn't arrive as a phased burst.
	var vicN, aggN loopCounts
	victim := fcgiLoop{
		b: b, pool: pool, kind: "qos", think: qosThink, shed: qosThink, observe: true, n: &vicN,
		req: fcgi.Request{Params: params},
	}
	for i := 0; i < fp.Tenants; i++ {
		l := victim
		l.req.Tenant = fmt.Sprintf("t%04d", i)
		offset := sim.Duration(int64(qosThink) * int64(i) / int64(fp.Tenants))
		b.eng.Go(l.req.Tenant, func(p *sim.Proc) {
			p.Sleep(offset)
			l.run(p)
		})
	}

	// The heavy hitter: qosAggressorLoops zero-think loops under ONE tenant
	// identity, retrying immediately on success and after a short backoff
	// on a shed (the backoff consumes simulated time, so an admission-
	// control wall can't spin the engine at one instant).
	if fp.Aggressor {
		for i := 0; i < qosAggressorLoops; i++ {
			// Per-loop backoff jitter: without it all the loops shed in
			// lockstep and their admission attempts arrive as periodic
			// bursts the victims' tail can feel.
			l := fcgiLoop{
				b: b, pool: pool, kind: "qos-agg", n: &aggN,
				shed: 2*sim.Millisecond + sim.Duration(i)*67*sim.Microsecond,
				req:  fcgi.Request{Params: params, Tenant: aggTenant},
			}
			b.eng.Go(fmt.Sprintf("agg%d", i), l.run)
		}
	}

	label := "uniform"
	if fp.Aggressor {
		label = "aggressor"
	}
	enf := "off"
	if fp.QoS {
		enf = "on"
	}
	res := QoSResult{Label: fmt.Sprintf("%s qos=%s", label, enf)}
	var warmSheds, warmThrottles int64
	b.reset.Add(m, tenants)
	res.VictimP50Us, res.VictimP99Us = b.run(func() {
		vicN.markWarm()
		aggN.markWarm()
		warmSheds, warmThrottles = pool.Sheds()
	}, func() {
		vic := vicN.done - vicN.warmDone
		agg := aggN.done - aggN.warmDone
		res.Requests = vic + agg
		res.KReqPerSec = b.perSec(vic + agg)
		res.VictimKReqPerSec = b.perSec(vic)
		res.AggKReqPerSec = b.perSec(agg)
		sheds, throttles := pool.Sheds()
		res.Sheds = sheds - warmSheds
		res.Throttles = throttles - warmThrottles
		if res.Requests > 0 {
			res.ShedsPerReq = float64(res.Sheds+res.Throttles) / float64(res.Requests)
		}
		if vic > 0 && fp.Aggressor {
			secs := fp.Measure.Seconds()
			fair := float64(vic) / float64(fp.Tenants) / secs // one tenant's fair req/s
			offered := float64(aggN.attempts-aggN.warmAttempts) / secs
			res.AggOfferedX = offered / fair
		}
		res.CPUUtil = m.CPU().Utilization()
	})
	if failed := vicN.failed + aggN.failed; failed > 0 {
		panic(fmt.Sprintf("experiments: RunQoS had %d non-shed failures", failed))
	}
	return res
}

// FigQoS — multi-tenant isolation under an adversarial heavy hitter:
// victim p99 across the four legs of {uniform, aggressor} × {QoS off,
// QoS on}, with the notes carrying the isolation verdict (victim p99
// restored to within a fraction of its no-aggressor baseline), the
// enforcement overhead on the uniform legs, and where the aggressor's
// excess went.
func FigQoS(opt Options) *Table {
	t := &Table{
		Title:   "QoS: victim p99 (µs) under a heavy hitter, enforcement off vs on",
		XLabel:  "population",
		Columns: []string{"uniform off", "uniform on", "aggr off", "aggr on"},
	}
	tenants := 1000
	warm, meas := 300*time.Millisecond, 1200*time.Millisecond
	if opt.Quick {
		tenants = 300
		warm, meas = 200*time.Millisecond, 600*time.Millisecond
	}
	legs := []struct {
		aggressor, qos bool
	}{
		{false, false}, {false, true}, {true, false}, {true, true},
	}
	row := Row{Label: fmt.Sprintf("%d+1", tenants)}
	var rs []QoSResult
	for _, leg := range legs {
		r := RunQoS(QoSParams{
			Tenants:   tenants,
			Aggressor: leg.aggressor,
			QoS:       leg.qos,
			Warmup:    warm,
			Measure:   meas,
			Obs:       opt.Trace,
		})
		opt.progress("FigQoS %s: victim p99 %.0fµs, %.2f kreq/s (agg %.2f kreq/s, sheds/req %.2f, cpu %.2f)",
			r.Label, r.VictimP99Us, r.KReqPerSec, r.AggKReqPerSec, r.ShedsPerReq, r.CPUUtil)
		row.Values = append(row.Values, r.VictimP99Us)
		rs = append(rs, r)
	}
	t.Rows = append(t.Rows, row)
	overhead := 0.0
	if rs[0].KReqPerSec > 0 {
		overhead = (rs[0].KReqPerSec - rs[1].KReqPerSec) / rs[0].KReqPerSec * 100
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("qos isolation: victim p99 %.0f → %.0f µs under aggressor (qos on), "+
			"enforcement overhead %.1f%% kreq/s, sheds/req %.2f, aggressor goodput %.2f → %.2f kreq/s",
			rs[1].VictimP99Us, rs[3].VictimP99Us, overhead,
			rs[3].ShedsPerReq, rs[2].AggKReqPerSec, rs[3].AggKReqPerSec),
		fmt.Sprintf("aggressor offered %.0f× one tenant's fair rate (conc %d, zero think)", rs[3].AggOfferedX, qosAggressorLoops),
		"enforcement: pool admission (share bound + per-tenant rate bucket), tenant-aware routing",
		fmt.Sprintf("%d tenants, %s think, %dKB ref-mode docs over loopback socket, offload on", tenants, qosThink, qosDocBytes>>10))
	return t
}
