// Package experiments reproduces every figure of the paper's evaluation
// (Section 5). Each FigN function builds the corresponding experiment —
// server configuration, network, workload — runs it on the simulated
// testbed, and returns a table shaped like the paper's plot. Both
// bench_test.go and cmd/webbench drive these runners.
package experiments

import (
	"math/rand"
	"time"

	"iolite/internal/cache"
	"iolite/internal/fsim"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
	"iolite/internal/wload"
)

// ServerConfig names one server configuration under test.
type ServerConfig struct {
	Kind httpd.Kind
	// Policy selects the Flash-Lite file cache policy: "GDS" (default) or
	// "LRU" (the Figure 11 ablation). Ignored for conventional servers.
	Policy string
	// NoCksumCache disables the checksum cache on Flash-Lite (Figure 11).
	NoCksumCache bool
}

// Label renders the configuration name as the paper writes it.
func (sc ServerConfig) Label() string {
	l := sc.Kind.String()
	if sc.Kind.Lite() {
		if sc.Policy == "LRU" {
			l += " LRU"
		}
		if sc.NoCksumCache {
			l += " no-cksum"
		}
	}
	return l
}

// Standard configurations.
var (
	CfgFlashLite       = ServerConfig{Kind: httpd.FlashLite}
	CfgFlashLiteSplice = ServerConfig{Kind: httpd.FlashLiteSplice}
	CfgFlash           = ServerConfig{Kind: httpd.Flash}
	CfgApache          = ServerConfig{Kind: httpd.Apache}
)

// WebParams describes one experiment run.
type WebParams struct {
	Server ServerConfig

	// Clients is the closed-loop client population, spread over
	// webClientMachines machines.
	Clients int
	// Persistent selects HTTP/1.1 keep-alive connections.
	Persistent bool
	// Delay is the one-way link delay injected by the delay routers
	// (Figure 12).
	Delay time.Duration

	// Exactly one workload:
	// SingleFileSize serves one static document of this size (Figs 3-4);
	SingleFileSize int64
	// CGISize serves one dynamic document of this size (Figs 5-6);
	CGISize int64
	// Trace samples requests from a generated trace (Figs 8, 10-12).
	Trace *wload.Trace

	// Warmup is excluded from measurement; Measure is the timed window.
	Warmup  time.Duration
	Measure time.Duration

	Seed int64

	// Obs, when set, traces every request through the server (spans,
	// phase attribution, per-kind latency histograms). Latency
	// percentiles in the result do not require it — clients always
	// measure their own.
	Obs *obs.Collector
}

// WebResult is one experiment outcome.
type WebResult struct {
	Metrics
	Mbps   float64
	Errors int64
	// HitRate is the file cache hit rate during measurement (unified cache
	// for Flash-Lite, mmap cache otherwise).
	HitRate  float64
	CPUUtil  float64
	DiskUtil float64
}

// The paper's testbed (§5): five client machines, and 128 MB of server
// memory.
const (
	webClientMachines = 5
	webMemBytes       = 128 << 20
)

// machineConfig builds the kernel config of a machine serving sc: the
// IO-Lite servers get their file cache policy and the checksum cache.
func (sc ServerConfig) machineConfig(memBytes int64, offload bool) kernel.Config {
	kcfg := kernel.Config{MemBytes: memBytes, Offload: offload}
	if sc.Kind.Lite() {
		if sc.Policy == "LRU" {
			kcfg.Policy = cache.NewLRU()
		} else {
			kcfg.Policy = cache.NewGDS()
		}
		kcfg.ChecksumCache = !sc.NoCksumCache
	}
	return kcfg
}

// RunWeb executes one experiment and returns its result.
func RunWeb(wp WebParams) WebResult {
	orDefault(&wp.Clients, 40)
	orDefault(&wp.Warmup, 2*time.Second)
	orDefault(&wp.Measure, 5*time.Second)

	b := newBed(wp.Obs, wp.Warmup, wp.Measure)
	isLite := wp.Server.Kind.Lite()
	m := kernel.NewMachine(b.eng, b.costs, wp.Server.machineConfig(webMemBytes, false))
	lst := netsim.NewListener(m.Host)
	srv := httpd.NewServer(httpd.Config{
		Kind:     wp.Server.Kind,
		Machine:  m,
		Listener: lst,
		CGI:      wp.CGISize > 0,
		Obs:      wp.Obs,
	})

	// Workload.
	var next func(p *sim.Proc, rng *rand.Rand) string
	switch {
	case wp.SingleFileSize > 0:
		m.FS.Create("/doc", wp.SingleFileSize)
		next = func(*sim.Proc, *rand.Rand) string { return "/doc" }
	case wp.CGISize > 0:
		path := httpd.CGIDocPath(wp.CGISize)
		next = func(*sim.Proc, *rand.Rand) string { return path }
	case wp.Trace != nil:
		wp.Trace.Install(m.FS)
		tr := wp.Trace
		next = func(_ *sim.Proc, rng *rand.Rand) string { return tr.Path(tr.Sample(rng)) }
		// Start from steady state: the most popular documents are already
		// cached, as they would be hours into the paper's runs. Leave
		// headroom for socket buffers and churn.
		files := make([]*fsim.File, 0, tr.Spec.Files)
		for i := 0; i < tr.Spec.Files; i++ {
			f := m.FS.Lookup(nil, tr.Path(i))
			files = append(files, f)
			srv.PrimeOpen(tr.Path(i), f)
		}
		keepFree := mem.PagesFor(12 << 20)
		if isLite {
			m.PrewarmUnified(files, keepFree)
		} else {
			m.PrewarmMmap(srv.Process(), files, keepFree)
		}
	default:
		panic("experiments: no workload configured")
	}

	clients := &clientTier{
		clients: wp.Clients, machines: webClientMachines, delay: wp.Delay, seed: wp.Seed,
		cfg:  httpd.ClientConfig{Listener: lst, RefServer: isLite, Persistent: wp.Persistent},
		next: next,
	}
	clients.start(b, m.Host)

	res := WebResult{Metrics: Metrics{Label: wp.Server.Label()}}
	var warmBytes, warmReqs int64
	b.reset.Add(m)
	res.P50Us, res.P99Us = b.run(func() {
		ws := srv.Stats()
		warmReqs, warmBytes = ws.Requests, ws.TotalBytes
	}, func() {
		ss := srv.Stats()
		res.Requests = ss.Requests - warmReqs
		res.Mbps = b.mbps(ss.TotalBytes - warmBytes)
		res.CPUUtil = m.CPU().Utilization()
		res.DiskUtil = m.Disk.Utilization()
		var hits, misses int64
		if isLite {
			hits, misses, _, _ = m.FileCache.Stats()
		} else {
			hits, misses = m.Mmaps.Stats()
		}
		if hits+misses > 0 {
			res.HitRate = float64(hits) / float64(hits+misses)
		}
	})
	res.Errors = clients.errors()
	return res
}
