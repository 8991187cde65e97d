package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"iolite/internal/apps"
	"iolite/internal/fcgi"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The chaos experiment: the zero-copy claims under failure. A depth-D
// sock-local ref fcgi tier runs its closed loop while the loopback wire
// drops data segments (netsim.FaultPlan + selective recovery)
// and a killer process periodically tears a worker's channel down
// mid-flight (supervision respawns capacity; the Replay policy decides
// whether in-flight idempotent requests survive). The meters answer the
// questions the recovery layer exists for: how much goodput survives, what
// the tail pays, whether any request is lost, whether retransmission
// re-charges copies it must not, and whether any buffer reference leaks.

// ChaosParams describes one chaos run.
type ChaosParams struct {
	// Workers / Depth shape the pool (defaults 2 × 16 — the acceptance
	// topology). Requesters defaults to Workers × Depth.
	Workers    int
	Depth      int
	Requesters int
	// DocBytes sizes the response document (default 16 KB).
	DocBytes int64
	// Think is each requester's pause between completions (default 40 ms).
	// A closed loop with no think time pins the host CPU at 100% — the
	// era-faithful per-packet costs make a 16 KB response ≈ 1 ms of CPU —
	// and a saturated host converts every retransmitted segment straight
	// into lost goodput, measuring only the overhead, never the recovery.
	Think time.Duration
	// LossProb is the per-data-segment drop probability on the loopback
	// wire; 0 leaves the wire reliable (and the fault-free path
	// timer-free). The fault plan runs on its default seed.
	LossProb float64
	// KillEvery is the period between worker kills (0 = no kills). Kills
	// rotate round-robin over the pool and run through the whole window.
	KillEvery time.Duration
	// Replay enables the pool's idempotent replay policy; without it an
	// in-flight request on a killed worker fails with ErrWorkerDied.
	Replay bool
	// Offload enables LSO/GRO segment offload on the machine: faults are
	// then judged per MSS chunk inside super-segments, and recovery must
	// retransmit chunk-granular holes (kernel.Config.Offload).
	Offload bool

	Warmup  time.Duration
	Measure time.Duration

	// Obs, when set, traces every request — retransmit stalls surface as
	// a distinct span phase, and the samplers track in-flight depth and
	// cumulative retransmissions.
	Obs *obs.Collector
}

// ChaosResult is one run's outcome.
type ChaosResult struct {
	Metrics
	// GoodputKReq is completed requests per second, in thousands, over the
	// measure window.
	GoodputKReq float64
	// Failed counts requests that returned an error anywhere in the run —
	// the acceptance criterion demands 0 with replay on.
	Failed   int64
	Replays  int64
	Reroutes int64
	Respawns int64
	// RetransSegs / RetransPct meter recovery overhead: segments re-sent,
	// and retransmitted bytes as a fraction of all data bytes out.
	RetransSegs int64
	RetransPct  float64
	// CopiedKBPerReq is charged copy work per completed request — the pin
	// that retransmission and replay must not inflate beyond the clean
	// run's figure (sock-local ref payloads cross by reference; only
	// framing and request params are copied).
	CopiedKBPerReq float64
	// LeakPages counts live pages beyond the per-pool open-chunk allowance
	// after the run drains — nonzero means an abandoned delivery kept a
	// *core.Agg reference.
	LeakPages int
}

// RunChaos executes one chaos run on the sock-local ref topology.
func RunChaos(cp ChaosParams) ChaosResult {
	orDefault(&cp.Workers, 2)
	orDefault(&cp.Depth, 16)
	orDefault(&cp.Requesters, cp.Workers*cp.Depth)
	orDefault(&cp.DocBytes, 16<<10)
	orDefault(&cp.Think, 40*time.Millisecond)
	orDefault(&cp.Warmup, 100*time.Millisecond)
	orDefault(&cp.Measure, 500*time.Millisecond)

	b := newBed(cp.Obs, cp.Warmup, cp.Measure)
	// The checksum cache is load-bearing under faults: a retransmitted ref
	// segment re-checksums with one lookup per piece instead of re-paying
	// the full pass, so recovery overhead is wire bytes, not CPU.
	m := kernel.NewMachine(b.eng, b.costs, kernel.Config{ChecksumCache: true, Offload: cp.Offload})
	srv := m.NewProcess("chaos-srv", 2<<20)
	tr := fcgi.NewLoopbackTransport(m, srv, true)

	if cp.LossProb > 0 {
		tr.Link.SetFaultPlan(&netsim.FaultPlan{DropProb: cp.LossProb})
	}
	pool := docPool(fcgi.PoolConfig{
		Machine:   m,
		Server:    srv,
		Workers:   cp.Workers,
		Depth:     cp.Depth,
		Ref:       true,
		Transport: tr,
		Respawn:   true,
		Replay:    cp.Replay,
		Name:      "cw",
		Obs:       cp.Obs,
	}, cp.DocBytes, fcgiAppDelay)

	var n loopCounts
	fcgiLoop{
		b: b, pool: pool, kind: "chaos", think: cp.Think, retry: 100 * time.Microsecond, observe: true, n: &n,
		req: fcgi.Request{Params: []byte(fmt.Sprintf("/doc/%d", cp.DocBytes)), Idempotent: true},
	}.spawn(cp.Requesters)
	// Samplers: mux occupancy, open spans, and cumulative retransmitted
	// segments — the recovery story as counter tracks.
	b.sampleEvery("pool-inflight", func() float64 { return float64(pool.InFlight()) })
	b.sampleEvery("active-spans", func() float64 { return float64(cp.Obs.ActiveSpans()) })
	b.sampleEvery("retrans-segs", func() float64 { segs, _ := m.Host.RetransStats(); return float64(segs) })
	if cp.KillEvery > 0 {
		b.eng.Go("killer", func(p *sim.Proc) {
			for k := 0; ; k++ {
				p.Sleep(cp.KillEvery)
				if p.Now() >= b.end {
					return
				}
				pool.Workers()[k%cp.Workers].Conn().Close(p)
			}
		})
	}

	res := ChaosResult{Metrics: Metrics{Label: chaosLabel(cp)}}
	b.reset.Add(m)
	res.P50Us, res.P99Us = b.run(n.markWarm, func() {
		res.Requests = n.done - n.warmDone
		res.GoodputKReq = b.perSec(res.Requests)
		if res.Requests > 0 {
			res.CopiedKBPerReq = float64(b.costs.MeterCopiedBytes()) / float64(res.Requests) / (1 << 10)
		}
		segs, rbytes := m.Host.RetransStats()
		res.RetransSegs = segs
		if _, _, bytesOut, _ := m.Host.Stats(); bytesOut > 0 {
			res.RetransPct = float64(rbytes) / float64(bytesOut)
		}
	})
	res.Failed = n.failed
	res.Replays = pool.Replays()
	res.Reroutes = pool.Reroutes()
	res.Respawns = pool.Respawns()
	res.LeakPages = leakPages(srv.Pool.LivePages())
	for _, w := range pool.Workers() {
		res.LeakPages += leakPages(w.Proc.Pool.LivePages())
	}
	return res
}

// leakPages converts one pool's live-page count to leaked pages: anything
// beyond the open pack chunk's allowance.
func leakPages(live int) int {
	if live > mem.PagesPerChunk {
		return live - mem.PagesPerChunk
	}
	return 0
}

func chaosLabel(cp ChaosParams) string {
	l := fmt.Sprintf("loss=%.1f%%", cp.LossProb*100)
	if cp.KillEvery > 0 {
		l += fmt.Sprintf(" kill=%v", cp.KillEvery)
		if cp.Replay {
			l += "+replay"
		}
	}
	if cp.Offload {
		l += " offl"
	}
	return l
}

// StaleChaosResult is the origin-outage leg's outcome: the proxy-tier half
// of the degradation story, where requests are answered from an expired
// cache entry while the origin is down.
type StaleChaosResult struct {
	Requests    int64
	StaleServed int64
	Aborted     int64
}

// RunStaleChaos runs the proxy degradation leg: a ServeStale caching proxy
// in front of an origin that goes down mid-run. Before the outage, TTL
// expiry refreshes entries from the origin; after it, expired entries are
// served stale instead of failing the client.
func RunStaleChaos() StaleChaosResult {
	b := newBed(nil, 0, 100*time.Millisecond)
	origin := kernel.NewMachine(b.eng, b.costs, kernel.Config{ChecksumCache: true})
	originLst := netsim.NewListener(origin.Host)
	osrv := httpd.NewServer(httpd.Config{Kind: httpd.FlashLite, Machine: origin, Listener: originLst})
	f := origin.FS.Create("/doc.html", 16<<10)
	osrv.PrimeOpen("/doc.html", f)

	pm := kernel.NewMachine(b.eng, b.costs, kernel.Config{ChecksumCache: true})
	plst := netsim.NewListener(pm.Host)
	olink := netsim.NewLink(b.eng, pm.Host, origin.Host, 100_000_000, 100*time.Microsecond)
	px := apps.NewProxy(apps.ProxyConfig{
		Mode:         apps.ProxyZeroCopy,
		Machine:      pm,
		Listener:     plst,
		Origin:       originLst,
		OriginLink:   olink,
		OriginRef:    true,
		TTL:          5 * time.Millisecond,
		ServeStale:   true,
		Retries:      1,
		RetryBackoff: 500 * time.Microsecond,
	})

	(&clientTier{
		clients: 1, machines: 1,
		cfg: httpd.ClientConfig{Listener: plst, RefServer: true},
		next: func(p *sim.Proc, _ *rand.Rand) string {
			p.Sleep(time.Millisecond)
			return "/doc.html"
		},
	}).start(b, pm.Host)
	b.eng.At(sim.Time(40*time.Millisecond), func() {
		// The outage: every later refetch finds the origin unreachable.
		originLst.Close()
	})
	b.eng.Run()

	var res StaleChaosResult
	res.Requests, _, _, _, res.Aborted = px.Stats()
	res.StaleServed = px.StaleServed()
	b.eng.Close()
	return res
}

// chaosFigConfigs is the column set: kills off / kills without replay /
// kills with replay, each swept over the loss-rate rows.
var chaosFigConfigs = []struct {
	name      string
	killEvery time.Duration
	replay    bool
	offload   bool
}{
	{"no kills", 0, false, false},
	{"kills", 20 * time.Millisecond, false, false},
	{"kills+replay", 20 * time.Millisecond, true, false},
	{"kills+replay offl", 20 * time.Millisecond, true, true},
}

// FigChaos — goodput under injected failure: completed requests per second
// versus segment loss rate, with and without worker kills, with and
// without idempotent replay. The notes carry the tail and recovery meters
// (p99, failed vs replayed, retransmit overhead, leak check) and the
// proxy-tier origin-outage leg (stale-served vs failed requests).
func FigChaos(opt Options) *Table {
	t := &Table{
		Title:  "Chaos: goodput under segment loss × worker kills × replay (kreq/s)",
		XLabel: "loss %",
	}
	for _, c := range chaosFigConfigs {
		t.Columns = append(t.Columns, c.name)
	}
	warm, meas := 100*time.Millisecond, 500*time.Millisecond
	if opt.Quick {
		warm, meas = 50*time.Millisecond, 250*time.Millisecond
	}
	rates := []float64{0, 0.005, 0.01, 0.05}
	if opt.Quick {
		rates = []float64{0, 0.01}
	}
	notesAt := 0.01
	for _, loss := range rates {
		row := Row{Label: fmt.Sprintf("%.1f", loss*100)}
		for _, c := range chaosFigConfigs {
			r := RunChaos(ChaosParams{
				LossProb:  loss,
				KillEvery: c.killEvery,
				Replay:    c.replay,
				Offload:   c.offload,
				Warmup:    warm,
				Measure:   meas,
				Obs:       opt.Trace,
			})
			opt.progress("FigChaos %s %s: %.1f kreq/s (p50 %.0fµs p99 %.0fµs, failed %d, replays %d, retrans %.2f%%, leaks %d)",
				c.name, r.Label, r.GoodputKReq, r.P50Us, r.P99Us, r.Failed, r.Replays, r.RetransPct*100, r.LeakPages)
			row.Values = append(row.Values, r.GoodputKReq)
			if loss == notesAt {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s @%s: p99 %.0fµs, failed %d, replays %d, reroutes %d, respawns %d, retrans %.2f%% (%d segs), copied %.2f KB/req, leaked pages %d",
					c.name, r.Label, r.P99Us, r.Failed, r.Replays, r.Reroutes, r.Respawns,
					r.RetransPct*100, r.RetransSegs, r.CopiedKBPerReq, r.LeakPages))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	sres := RunStaleChaos()
	t.Notes = append(t.Notes,
		fmt.Sprintf("origin-outage leg (ServeStale proxy): %d requests, %d stale-served, %d failed",
			sres.Requests, sres.StaleServed, sres.Aborted),
		"sock-local ref fcgi, 2 workers × depth 16, 16KB docs, 400µs app wait, 40ms client think",
		"loss is injected per data segment on the loopback wire;",
		"selective retransmission re-sends the lost chunk's stored refs (no copy re-charge)",
		"kills close a worker channel every 20ms; supervision respawns capacity,",
		"and with replay on, in-flight idempotent requests re-dispatch instead of failing")
	return t
}
