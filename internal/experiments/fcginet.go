package experiments

import (
	"fmt"
	"time"

	"iolite/internal/fcgi"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/obs"
)

// The fcgi-net experiment: the LAN-tax study the transport layer exists
// for. One worker pool serving one workload runs over each transport the
// pool supports — in-machine pipe pairs, loopback TCP on the server
// machine, and TCP to workers on a separate machine — in both payload
// modes. Three effects separate the placements:
//
//   - pipe → socket ("sock-local"): every record now rides the TCP
//     protocol path — per-segment packet work, interrupts, early demux,
//     checksums — on the same CPU. Reference payloads still cross with
//     zero copy charge.
//   - socket-local → socket-remote: the worker tier gets its own CPU
//     (scale-out), but sealed aggregates cannot cross machines by
//     reference: ref-requested payloads degrade to exactly one charged
//     copy at the machine boundary, and the wire's bandwidth and delay
//     join the path.
//   - copy vs ref: conventional payloads additionally pay the read-side
//     copy on every placement, and the staging copy on pipes.

// FCGINetPlacement names a worker placement.
type FCGINetPlacement string

// The measured placements.
const (
	PlacePipe       FCGINetPlacement = "pipe"
	PlaceSockLocal  FCGINetPlacement = "sock-local"
	PlaceSockRemote FCGINetPlacement = "sock-remote"
)

// Placements lists the placements in figure order.
var Placements = []FCGINetPlacement{PlacePipe, PlaceSockLocal, PlaceSockRemote}

// FCGINetParams describes one fcgi transport run.
type FCGINetParams struct {
	// Placement selects the worker transport (default pipe).
	Placement FCGINetPlacement
	// Workers is the pool size N; Depth is the per-worker mux depth.
	Workers int
	Depth   int
	// Requesters is the closed-loop request population M (default
	// Workers×Depth — every mux slot occupied).
	Requesters int
	// DocBytes sizes the response document (default 16 KB).
	DocBytes int64
	// Ref requests reference-mode response payloads (degraded to the
	// boundary copy on sock-remote).
	Ref bool
	// Ring routes every worker channel through submission rings
	// (fcgi.PoolConfig.Ring): batched record writes and coalesced reads
	// instead of one charged syscall per record and per delivery.
	Ring bool
	// Offload enables LSO/GRO segment offload on every machine in the
	// topology: super-segments charged once, coalesced receive events,
	// and delayed acks (kernel.Config.Offload).
	Offload bool

	Warmup  time.Duration
	Measure time.Duration

	// Obs, when set, traces every request through the pool — including,
	// for sock-remote, the trace id riding the record headers to the
	// worker machine and its service interval marked back on the span.
	Obs *obs.Collector
}

// FCGINetResult is one run's outcome.
type FCGINetResult struct {
	Metrics
	// KReqPerSec is completed requests per second, in thousands.
	KReqPerSec float64
	Failures   int64
	// CopiedMB is the copy work charged during measurement across every
	// machine in the topology — the LAN-tax meter: ref/pipe ≈ framing,
	// ref/sock-remote ≈ one payload copy, copy modes ≥ two.
	CopiedMB float64
	// CPUUtil is the server machine's CPU utilization; WorkerCPUUtil is
	// the worker machine's (equal to CPUUtil for on-machine placements).
	CPUUtil       float64
	WorkerCPUUtil float64
	// WireMeters count every host in the topology.
	WireMeters
}

// RunFCGINet executes one fcgi transport experiment.
func RunFCGINet(fp FCGINetParams) FCGINetResult {
	orDefault(&fp.Placement, PlacePipe)
	orDefault(&fp.Workers, 4)
	orDefault(&fp.Depth, 8)
	orDefault(&fp.Requesters, fp.Workers*fp.Depth)
	orDefault(&fp.DocBytes, 16<<10)
	orDefault(&fp.Warmup, 300*time.Millisecond)
	orDefault(&fp.Measure, 1500*time.Millisecond)

	b := newBed(fp.Obs, fp.Warmup, fp.Measure)
	m := kernel.NewMachine(b.eng, b.costs, kernel.Config{Offload: fp.Offload})
	srv := m.NewProcess("fcgi-srv", 2<<20)

	var tr fcgi.Transport
	wm := m
	switch fp.Placement {
	case PlacePipe:
		tr = fcgi.NewPipeTransport(m, srv, fp.Ref)
	case PlaceSockLocal:
		tr = fcgi.NewLoopbackTransport(m, srv, fp.Ref)
	case PlaceSockRemote:
		tr, wm = fcgi.NewLANTransport(m, srv, fp.Ref)
	default:
		panic("experiments: unknown placement " + string(fp.Placement))
	}
	pool := docPool(fcgi.PoolConfig{
		Machine:   m,
		Server:    srv,
		Workers:   fp.Workers,
		Depth:     fp.Depth,
		Ref:       fp.Ref,
		Ring:      fp.Ring,
		Transport: tr,
		Respawn:   true,
		Name:      "fw",
		Obs:       fp.Obs,
	}, fp.DocBytes, fcgiAppDelay)

	var n loopCounts
	fcgiLoop{
		b: b, pool: pool, kind: string(fp.Placement), observe: true, n: &n,
		req: fcgi.Request{Params: []byte(fmt.Sprintf("/doc/%d", fp.DocBytes))},
	}.spawn(fp.Requesters)
	// Periodic samplers: mux occupancy and open-span population, exported
	// as counter tracks in the trace.
	b.sampleEvery("pool-inflight", func() float64 { return float64(pool.InFlight()) })
	b.sampleEvery("active-spans", func() float64 { return float64(fp.Obs.ActiveSpans()) })

	mode := "copy"
	if fp.Ref {
		mode = "ref"
	}
	if fp.Ring {
		mode += " ring"
	}
	if fp.Offload {
		mode += " offl"
	}
	var res FCGINetResult
	res.Label = fmt.Sprintf("%s %s w=%d d=%d", fp.Placement, mode, fp.Workers, fp.Depth)
	hosts := []*netsim.Host{m.Host}
	b.reset.Add(m)
	if wm != m {
		hosts = append(hosts, wm.Host)
		b.reset.Add(wm)
	}
	res.P50Us, res.P99Us = b.run(n.markWarm, func() {
		res.Requests = n.done - n.warmDone
		res.KReqPerSec = b.perSec(res.Requests)
		res.CopiedMB = float64(b.costs.MeterCopiedBytes()) / (1 << 20)
		res.CPUUtil = m.CPU().Utilization()
		res.WorkerCPUUtil = wm.CPU().Utilization()
		res.WireMeters = b.wireMeters(res.Requests, hosts, nil)
	})
	res.Failures = n.failed
	return res
}

// fcgiNetFigPoints is the worker-count x-axis.
func fcgiNetFigPoints(quick bool) []int {
	if quick {
		return []int{2, 4}
	}
	return []int{1, 2, 4, 8}
}

// fcgiNetFigConfigs is the column set: every placement × payload mode,
// plus the submission-ring variant of the placement it helps most —
// sock-local ref, where the per-record and per-delivery syscalls were the
// remaining gap to the pipe figure.
var fcgiNetFigConfigs = []struct {
	placement          FCGINetPlacement
	ref, ring, offload bool
}{
	{PlacePipe, false, false, false},
	{PlacePipe, true, false, false},
	{PlaceSockLocal, false, false, false},
	{PlaceSockLocal, true, false, false},
	{PlaceSockLocal, true, true, false},
	{PlaceSockLocal, true, false, true},
	{PlaceSockRemote, false, false, false},
	{PlaceSockRemote, true, false, false},
}

// FigFCGINet — the LAN-tax figure: completed requests per second versus
// worker count for every placement × payload mode, at mux depth 8. The
// notes carry the charged copy volume that explains the ordering: pipes
// charge framing only in ref mode; a local socket adds per-packet
// protocol work but still zero payload copies; a remote socket buys a
// second CPU at the price of the boundary copy (ref) or two copies plus
// the wire (copy). The ring column batches the local socket's syscalls
// back out of the path — its kreq/s is the LAN tax minus the kernel-
// crossing installment, closing most of the gap to the pipe figure.
func FigFCGINet(opt Options) *Table {
	t := &Table{
		Title:  "FCGI-Net: worker placement, copy vs ref records (kreq/s) — the LAN tax",
		XLabel: "workers",
		Columns: []string{
			"pipe copy", "pipe ref",
			"sock-local copy", "sock-local ref", "sock-local ref ring",
			"sock-local ref offl",
			"sock-remote copy", "sock-remote ref",
		},
	}
	warm, meas := 300*time.Millisecond, 1500*time.Millisecond
	if opt.Quick {
		warm, meas = 200*time.Millisecond, 750*time.Millisecond
	}
	points := fcgiNetFigPoints(opt.Quick)
	notesAt := points[len(points)-1]
	if len(points) > 2 {
		notesAt = 4
	}
	for _, n := range points {
		row := Row{Label: fmt.Sprintf("%d", n)}
		byCol := map[string]FCGINetResult{}
		for i, cfg := range fcgiNetFigConfigs {
			r := RunFCGINet(FCGINetParams{
				Placement: cfg.placement,
				Workers:   n,
				Ref:       cfg.ref,
				Ring:      cfg.ring,
				Offload:   cfg.offload,
				Warmup:    warm,
				Measure:   meas,
				Obs:       opt.Trace,
			})
			opt.progress("FigFCGINet %s: %.1f kreq/s (copied %.1f MB, cpu %.2f/%.2f, %.1f pkts/req, %.1f acks/req, fill %.2f, %.1f sys/req, p50 %.0fµs p99 %.0fµs)",
				r.Label, r.KReqPerSec, r.CopiedMB, r.CPUUtil, r.WorkerCPUUtil, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq, r.P50Us, r.P99Us)
			row.Values = append(row.Values, r.KReqPerSec)
			byCol[t.Columns[i]] = r
			if n == notesAt {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s: copied %.2f MB, cpu %.2f (worker machine %.2f), %.1f pkts/req, seg fill %.2f, %.1f sys/req",
					r.Label, r.CopiedMB, r.CPUUtil, r.WorkerCPUUtil, r.PktsPerReq, r.SegFill, r.SyscallsPerReq))
			}
		}
		localRef, localRing, localOffl := byCol["sock-local ref"], byCol["sock-local ref ring"], byCol["sock-local ref offl"]
		if n == notesAt && localRing.SyscallsPerReq > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"ring before/after (sock-local ref): %.1f → %.1f sys/req, %.1f → %.1f kreq/s",
				localRef.SyscallsPerReq, localRing.SyscallsPerReq,
				localRef.KReqPerSec, localRing.KReqPerSec))
		}
		if n == notesAt && localOffl.Requests > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"offload before/after (sock-local ref): %.1f → %.1f pkts/req, %.1f → %.1f acks/req, %.1f → %.1f kreq/s",
				localRef.PktsPerReq, localOffl.PktsPerReq,
				localRef.AcksPerReq, localOffl.AcksPerReq,
				localRef.KReqPerSec, localOffl.KReqPerSec))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"16KB docs, 400µs app wait, depth 8, M = workers × depth closed-loop requesters",
		"sock-local rides loopback TCP on the server machine; sock-remote a 1 Gb/s, 50µs LAN link",
		"ref payloads cross pipes and local sockets by reference (copied MB ≈ framing);",
		"at the machine boundary they are charged as copies exactly once — the LAN tax",
		"pkts/req and seg fill meter the packet economy: the corked pump gathers adjacent",
		"records into MSS-sized segments and autotuned windows (depth × typical record)",
		"keep admission from fragmenting — fewer, fuller packets per request",
		"sys/req meters kernel crossings; the ring column batches record writes and",
		"coalesces deliveries, paying O(1) Submit+Reap charges per flush cycle",
		"the offl column turns on LSO/GRO segment offload: up to 64KB super-segments",
		"charged protocol work once, coalesced receive events, and delayed acks")
	return t
}
