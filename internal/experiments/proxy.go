package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"iolite/internal/apps"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The proxy experiment: clients → caching reverse proxy → origin server,
// the multi-tier scenario the ROADMAP asks for. It measures the zero-copy
// relay (IOL_read one socket, IOL_write the other) and the splice hit path
// against a conventional copying proxy, and each proxied configuration
// against clients hitting the origin directly.

// ProxyParams describes one proxy-topology run.
type ProxyParams struct {
	// Origin is the origin server configuration.
	Origin ServerConfig
	// Mode is the proxy data path. Ignored when Direct.
	Mode apps.ProxyMode
	// Direct bypasses the proxy tier: clients dial the origin.
	Direct bool

	// Offload enables LSO/GRO segment offload on every machine in the
	// topology — serving tier, origin, and the client hosts (clients
	// must run the same delayed-ack policy for the economy to show).
	Offload bool

	Warmup  time.Duration
	Measure time.Duration
	Seed    int64

	// Obs, when set, traces requests through the serving tier.
	Obs *obs.Collector
}

// The proxy topology's fixed workload: proxyDocs static documents of
// proxyDocBytes each, sampled uniformly by proxyClients nonpersistent
// clients on proxyClientMachines machines, so after one cold pass the
// proxy serves everything from its cache.
const (
	proxyDocs           = 8
	proxyDocBytes       = 64 << 10
	proxyClients        = 32
	proxyClientMachines = 4
)

// ProxyResult is one proxy run's outcome, including the charged-cost
// counters the figure quantifies: bytes of copy work priced anywhere in
// the simulation and the serving tier's checksum-cache hit rate.
type ProxyResult struct {
	Metrics
	Mbps    float64
	Errors  int64
	Aborted int64
	// HitRate is the proxy cache hit rate (1 when Direct is meaningless: 0).
	HitRate float64
	// CopiedMB is the copy work charged during measurement, in megabytes.
	CopiedMB float64
	// CksumHitRate is the serving machine's checksum-cache hit rate during
	// measurement (0 when the machine has no checksum cache).
	CksumHitRate float64
	// ServerCPUUtil is the serving tier's (proxy or origin) CPU utilization.
	ServerCPUUtil float64
	// WireMeters count the serving tier's data segments — client responses
	// plus, for a proxy, the small origin-fetch requests its cache misses
	// send upstream (negligible once the cache is warm) — and the acks of
	// the serving tier and the client hosts. Syscalls are topology-wide.
	WireMeters
}

// RunProxy executes one proxy-topology experiment.
func RunProxy(pp ProxyParams) ProxyResult {
	orDefault(&pp.Warmup, 500*time.Millisecond)
	orDefault(&pp.Measure, 2*time.Second)

	b := newBed(pp.Obs, pp.Warmup, pp.Measure)

	// Origin tier.
	origin := kernel.NewMachine(b.eng, b.costs, pp.Origin.machineConfig(0, pp.Offload))
	originLst := netsim.NewListener(origin.Host)
	srvObs := pp.Obs
	if !pp.Direct {
		srvObs = nil // the proxy fronts the topology; trace there
	}
	srv := httpd.NewServer(httpd.Config{
		Kind:     pp.Origin.Kind,
		Machine:  origin,
		Listener: originLst,
		Obs:      srvObs,
	})
	paths := make([]string, proxyDocs)
	for i := range paths {
		paths[i] = fmt.Sprintf("/doc%d", i)
		origin.FS.Create(paths[i], proxyDocBytes)
	}

	// Proxy tier (skipped when Direct). The proxy machine runs the IO-Lite
	// kernel with the checksum cache for the reference modes; the copying
	// proxy is a conventional machine.
	var px *apps.Proxy
	frontLst := originLst
	serveMachine := origin
	if !pp.Direct {
		proxy := kernel.NewMachine(b.eng, b.costs, kernel.Config{
			ChecksumCache: pp.Mode.RefMode(),
			Offload:       pp.Offload,
		})
		proxyLst := netsim.NewListener(proxy.Host)
		originLink := netsim.NewLink(b.eng, proxy.Host, origin.Host, 100_000_000, 100*time.Microsecond)
		px = apps.NewProxy(apps.ProxyConfig{
			Mode:       pp.Mode,
			Machine:    proxy,
			Listener:   proxyLst,
			Origin:     originLst,
			OriginLink: originLink,
			OriginRef:  pp.Origin.Kind.Lite(),
			Obs:        pp.Obs,
		})
		frontLst = proxyLst
		serveMachine = proxy
	}

	// Client tier, dialing whichever machine fronts the topology.
	refFront := pp.Origin.Kind.Lite()
	if !pp.Direct {
		refFront = pp.Mode.RefMode()
	}
	clients := &clientTier{
		clients: proxyClients, machines: proxyClientMachines, offload: pp.Offload, seed: pp.Seed,
		cfg:  httpd.ClientConfig{Listener: frontLst, RefServer: refFront},
		next: func(_ *sim.Proc, rng *rand.Rand) string { return paths[rng.Intn(len(paths))] },
	}
	clients.start(b, serveMachine.Host)
	b.sampleEvery("active-spans", func() float64 { return float64(pp.Obs.ActiveSpans()) })
	if px != nil {
		b.sampleEvery("proxy-hit-rate", px.HitRate)
	}

	// Measurement window bookkeeping: the serving tier's cumulative
	// requests, bytes out and aborts.
	stats := func() (reqs, bytes, aborted int64) {
		if px != nil {
			reqs, _, _, bytes, aborted = px.Stats()
			return reqs, bytes, aborted
		}
		ss := srv.Stats()
		return ss.Requests, ss.TotalBytes, ss.Aborted
	}
	var res ProxyResult
	if pp.Direct {
		res.Label = pp.Origin.Label() + " direct"
	} else {
		res.Label = pp.Origin.Label() + " " + pp.Mode.String()
	}
	if pp.Offload {
		res.Label += " offl"
	}
	var warmBytes, warmReqs, warmAborted int64
	b.reset.Add(serveMachine)
	for _, h := range clients.hosts {
		b.reset.Add(h)
	}
	res.P50Us, res.P99Us = b.run(func() {
		warmReqs, warmBytes, warmAborted = stats()
	}, func() {
		reqs, total, aborted := stats()
		if px != nil {
			res.HitRate = px.HitRate()
		}
		res.Requests = reqs - warmReqs
		res.Aborted = aborted - warmAborted
		res.Mbps = b.mbps(total - warmBytes)
		res.CopiedMB = float64(b.costs.MeterCopiedBytes()) / (1 << 20)
		if ck := serveMachine.CkCache; ck != nil {
			res.CksumHitRate = ck.HitRate()
		}
		res.ServerCPUUtil = serveMachine.CPU().Utilization()
		res.WireMeters = b.wireMeters(res.Requests, []*netsim.Host{serveMachine.Host}, clients.hosts)
	})
	res.Errors = clients.errors()
	return res
}

// proxyKinds is the four-way server comparison of the proxy figure.
var proxyKinds = []ServerConfig{CfgFlashLite, CfgFlashLiteSplice, CfgFlash, CfgApache}

// FigProxy — the caching reverse-proxy tier: aggregate client bandwidth
// for each origin server kind served directly and through the three proxy
// data paths. The notes quantify the per-mode charged copy work and the
// proxy's checksum-cache hit rate (all requests after the cold pass are
// cache hits, so the proxy tier's data path dominates).
func FigProxy(opt Options) *Table {
	t := &Table{
		Title:   "Proxy: zero-copy caching reverse proxy vs copying proxy (Mb/s)",
		XLabel:  "origin server",
		Columns: []string{"direct", "proxy-copy", "proxy-zc", "proxy-splice", "proxy-zc offl"},
	}
	warm, meas := 1*time.Second, 3*time.Second
	if opt.Quick {
		warm, meas = 500*time.Millisecond, 1500*time.Millisecond
	}
	modes := []apps.ProxyMode{apps.ProxyCopy, apps.ProxyZeroCopy, apps.ProxySplice}
	for _, sc := range proxyKinds {
		row := Row{Label: sc.Label()}
		direct := RunProxy(ProxyParams{
			Origin: sc, Direct: true, Warmup: warm, Measure: meas, Seed: 7, Obs: opt.Trace,
		})
		opt.progress("FigProxy %s: %.1f Mb/s (copied %.1f MB)", direct.Label, direct.Mbps, direct.CopiedMB)
		row.Values = append(row.Values, direct.Mbps)
		runOne := func(mode apps.ProxyMode, offload bool) {
			r := RunProxy(ProxyParams{
				Origin: sc, Mode: mode, Offload: offload, Warmup: warm, Measure: meas, Seed: 7, Obs: opt.Trace,
			})
			opt.progress("FigProxy %s: %.1f Mb/s (hit %.2f, copied %.1f MB, ck-hit %.2f, %.1f pkts/req, %.1f acks/req, fill %.2f, %.1f sys/req, p50 %.0fµs p99 %.0fµs)",
				r.Label, r.Mbps, r.HitRate, r.CopiedMB, r.CksumHitRate, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq, r.P50Us, r.P99Us)
			row.Values = append(row.Values, r.Mbps)
			if sc.Kind == httpd.FlashLite {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s: copied %.1f MB, proxy cksum-cache hit rate %.2f, proxy hit rate %.2f, %.1f pkts/req, %.1f acks/req, seg fill %.2f, %.1f sys/req",
					r.Label, r.CopiedMB, r.CksumHitRate, r.HitRate, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq))
			}
		}
		for _, mode := range modes {
			runOne(mode, false)
		}
		runOne(apps.ProxyZeroCopy, true)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"8 docs x 64KB, 32 clients, 4 machines; proxied runs interpose a caching reverse-proxy machine",
		"copied MB = bytes of copy work charged anywhere in the topology during measurement",
		"the offl column enables LSO/GRO segment offload topology-wide: 64KB responses go",
		"out as one charged super-segment and clients ack every 2nd event, not every MSS")
	return t
}
