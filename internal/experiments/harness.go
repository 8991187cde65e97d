package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	"iolite/internal/fcgi"
	"iolite/internal/httpd"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The experiment harness: the steps every Run* shares, each implemented
// once. A run builds a bed (engine, cost model, trace collector, measure
// window), puts its topology on it, starts a load — closed-loop fcgi
// requesters or an HTTP client tier — registers the meters the warmup
// boundary resets, and calls bed.run for the window's snapshots and
// latency percentiles.

// Metrics is the outcome every experiment reports for its measure window.
type Metrics struct {
	// Label names the configuration run.
	Label string
	// Requests counts requests completed in the measure window.
	Requests int64
	// P50Us / P99Us are requester-observed latency percentiles over the
	// measure window, in microseconds.
	P50Us float64
	P99Us float64
}

// WireMeters are a topology's packet-economy and kernel-crossing meters
// over the measure window, per completed request. The packet meters are 0
// when nothing crosses a wire (pipes).
type WireMeters struct {
	// PktsPerReq is charged transmit units (data segments, or offload
	// super-segments) per request, and SegFill their mean payload fill
	// versus the unit's capacity.
	PktsPerReq float64
	SegFill    float64
	// SegsPerReq is MSS-granular wire chunks per request (== PktsPerReq
	// without offload; with LSO one charged unit carries many chunks) and
	// AcksPerReq the ack packets per request — without them pkts/request
	// undercounts the wire by the whole ack stream.
	SegsPerReq float64
	AcksPerReq float64
	// SyscallsPerReq is the kernel crossings charged per request across the
	// topology — the meter the submission ring exists to lower.
	SyscallsPerReq float64
}

// orDefault sets *v to d when *v is zero or negative.
func orDefault[T cmp.Ordered](v *T, d T) {
	var zero T
	if *v <= zero {
		*v = d
	}
}

// bed is one experiment's simulated testbed and measure window: the
// engine, the cost model every machine on it shares, the optional trace
// collector attached to both, and the meters reset at the warmup boundary.
type bed struct {
	eng     *sim.Engine
	costs   *sim.CostModel
	obs     *obs.Collector
	warmup  time.Duration
	measure time.Duration
	end     sim.Time
	// lat is the requester-observed latency of completions that started
	// after warmup.
	lat   *obs.Histogram
	reset obs.ResetSet
}

func newBed(col *obs.Collector, warmup, measure time.Duration) *bed {
	b := &bed{
		eng:     sim.New(),
		costs:   sim.DefaultCosts(),
		obs:     col,
		warmup:  warmup,
		measure: measure,
		end:     sim.Time(warmup + measure),
		lat:     obs.NewHistogram(),
	}
	if col != nil {
		col.Attach(b.eng, b.costs)
	}
	b.reset.Add(b.costs, col)
	return b
}

// run runs the engine to completion, then closes it. At the warmup
// boundary warm snapshots the counters the window subtracts, then every
// registered meter resets; done reads the window's results at its end.
// The latency percentiles, in microseconds, include requests that started
// inside the window and completed after it.
func (b *bed) run(warm, done func()) (p50, p99 float64) {
	b.eng.At(sim.Time(b.warmup), func() {
		warm()
		b.reset.Reset()
	})
	b.eng.At(b.end, done)
	b.eng.Run()
	b.eng.Close()
	return float64(b.lat.Quantile(0.50)) / 1e3, float64(b.lat.Quantile(0.99)) / 1e3
}

// perSec converts a window count to thousands per second.
func (b *bed) perSec(n int64) float64 {
	return float64(n) / b.measure.Seconds() / 1e3
}

// mbps converts bytes moved in the window to megabits per second.
func (b *bed) mbps(bytes int64) float64 {
	return float64(bytes) * 8 / b.measure.Seconds() / 1e6
}

// sampleEvery registers a 1 ms trace sampler over the window (a no-op
// without a collector).
func (b *bed) sampleEvery(name string, fn func() float64) {
	b.obs.SampleEvery(name, sim.Duration(time.Millisecond), b.end,
		func(sim.Time) float64 { return fn() })
}

// wireMeters reads the wire meters at the end of the window: data
// segments from the tx hosts, acks from the tx and ackOnly hosts, and
// syscalls from the cost model. Segment fill is measured against the
// first tx host's charged unit: the super-segment under offload, one MSS
// otherwise.
func (b *bed) wireMeters(requests int64, tx, ackOnly []*netsim.Host) WireMeters {
	var pkts, bytes, segs, acks int64
	for _, h := range tx {
		p, _, by, _ := h.Stats()
		pkts, bytes, segs, acks = pkts+p, bytes+by, segs+h.SegsOut(), acks+h.AcksOut()
	}
	for _, h := range ackOnly {
		acks += h.AcksOut()
	}
	var wm WireMeters
	if requests > 0 {
		wm.PktsPerReq = float64(pkts) / float64(requests)
		wm.SegsPerReq = float64(segs) / float64(requests)
		wm.AcksPerReq = float64(acks) / float64(requests)
		wm.SyscallsPerReq = float64(b.costs.MeterSyscallCount()) / float64(requests)
	}
	if pkts > 0 {
		wm.SegFill = float64(bytes) / (float64(pkts) * float64(tx[0].SegCapacity()))
	}
	return wm
}

// fcgiDoc deterministically generates the n-byte document every fcgi
// experiment serves.
func fcgiDoc(n int64) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*13 + 5)
	}
	return d
}

// fcgiAppDelay is the off-CPU backend wait of the fcgi-net and chaos apps.
const fcgiAppDelay = 400 * time.Microsecond

// docPool starts the worker pool every fcgi experiment serves from. Its
// app parses each request (20 µs of CPU), waits on a backend (appDelay,
// off-CPU), and replies with a cached docBytes document: a sealed
// aggregate in the worker's own ACL'd pool (ref) or private bytes (copy).
// A retired worker's documents are dropped with it.
func docPool(cfg fcgi.PoolConfig, docBytes int64, appDelay time.Duration) *fcgi.WorkerPool {
	aggs, raws := fcgi.NewAggCache(), fcgi.NewRawCache()
	gen := func() []byte { return fcgiDoc(docBytes) }
	ref := cfg.Ref
	cfg.OnRetire = func(w *fcgi.Worker) {
		aggs.Drop(w)
		raws.Drop(w)
	}
	cfg.Handler = func(p *sim.Proc, w *fcgi.Worker, req *fcgi.ServerRequest) {
		w.M.Host.Use(p, 20*time.Microsecond) // request parse/dispatch work
		p.Sleep(appDelay)                    // the backend wait
		if ref {
			req.Reply(p, aggs.GetOrPack(p, w, docBytes, gen), 0)
			return
		}
		req.ReplyBytes(p, raws.GetOrGen(w, docBytes, gen), 0)
	}
	return fcgi.NewWorkerPool(cfg)
}

// loopCounts tallies one requester population over the whole run.
type loopCounts struct {
	done, failed, attempts int64
	// warmDone / warmAttempts are the tallies at the warmup boundary.
	warmDone, warmAttempts int64
}

// markWarm snapshots the tallies at the warmup boundary.
func (n *loopCounts) markWarm() { n.warmDone, n.warmAttempts = n.done, n.attempts }

// fcgiLoop is a closed-loop fcgi requester: until the window ends it
// issues req through pool, traced as a span of kind, pausing think after
// each completion.
type fcgiLoop struct {
	b     *bed
	pool  *fcgi.WorkerPool
	kind  string
	req   fcgi.Request
	think time.Duration
	// retry is the pause after a failed request before the next one; 0
	// ends the requester at its first failure. A retrying requester must
	// pause: pool.Do fails fast while every worker is briefly broken, and
	// an unpaced loop would spin at one instant, starving the respawn
	// that fixes it.
	retry time.Duration
	// shed is the pause after a QoS admission shed, which counts as
	// neither a completion nor a failure.
	shed time.Duration
	// observe records each completion's latency in the bed's histogram.
	observe bool
	n       *loopCounts
}

func (l fcgiLoop) run(p *sim.Proc) {
	for p.Now() < l.b.end {
		start := p.Now()
		l.n.attempts++
		sp := l.b.obs.Start(l.kind, start)
		if sp != nil {
			p.SetAttrib(sp)
		}
		req := l.req
		req.Span = sp
		resp, err := l.pool.Do(p, req)
		if sp != nil {
			p.SetAttrib(nil)
		}
		if err != nil {
			sp.Abandon()
			if l.shed > 0 && fcgi.IsShed(err) {
				p.Sleep(l.shed)
				continue
			}
			l.n.failed++
			if l.retry == 0 {
				return
			}
			p.Sleep(l.retry)
			continue
		}
		sp.Finish(p.Now())
		resp.Release()
		l.n.done++
		if l.observe && start >= sim.Time(l.b.warmup) {
			l.b.lat.Observe(int64(p.Now().Sub(start)))
		}
		if l.think > 0 {
			p.Sleep(l.think)
		}
	}
}

// spawn starts n copies of the requester, named req0 … req<n-1>.
func (l fcgiLoop) spawn(n int) {
	for i := 0; i < n; i++ {
		l.b.eng.Go(fmt.Sprintf("req%d", i), l.run)
	}
}

// clientTier is a web topology's client side: closed-loop HTTP clients
// spread round-robin over client machines, each machine on its own
// 100 Mb/s link to the serving host.
type clientTier struct {
	clients, machines int
	// delay is added to the links' 100 µs one-way delay (the Figure 12
	// delay routers).
	delay time.Duration
	// offload turns on segment offload on the client hosts, so they run
	// the serving tier's delayed-ack policy.
	offload bool
	// seed seeds client c's path sampler with seed + 7919c.
	seed int64
	// cfg is every client's config; Host, Link, Lat and LatFrom are filled
	// in per client.
	cfg httpd.ClientConfig
	// next returns a client's next path; clients stop at the window's end.
	next func(p *sim.Proc, rng *rand.Rand) string

	hosts []*netsim.Host
	stats []httpd.ClientStats
}

// start builds the client machines, links them to front, and starts the
// clients.
func (t *clientTier) start(b *bed, front *netsim.Host) {
	t.hosts = make([]*netsim.Host, t.machines)
	links := make([]*netsim.Link, t.machines)
	for i := range links {
		t.hosts[i] = netsim.NewHost(b.eng, b.costs, fmt.Sprintf("client%d", i), false, nil, nil)
		if t.offload {
			t.hosts[i].SetOffload(true)
		}
		links[i] = netsim.NewLink(b.eng, t.hosts[i], front, 100_000_000, t.delay+100*time.Microsecond)
	}
	t.stats = make([]httpd.ClientStats, t.clients)
	for c := 0; c < t.clients; c++ {
		rng := rand.New(rand.NewSource(t.seed + int64(c)*7919))
		cfg := t.cfg
		cfg.Host, cfg.Link = t.hosts[c%t.machines], links[c%t.machines]
		cfg.Lat, cfg.LatFrom = b.lat, sim.Time(b.warmup)
		b.eng.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			httpd.RunClient(p, cfg, func() (string, bool) {
				if p.Now() >= b.end {
					return "", false
				}
				return t.next(p, rng), true
			}, &t.stats[c])
		})
	}
}

// errors sums the clients' failed requests over the whole run.
func (t *clientTier) errors() (n int64) {
	for i := range t.stats {
		n += t.stats[i].Errors
	}
	return n
}
