package main

import (
	"fmt"
	"time"

	"iolite/internal/experiments"
	"iolite/internal/obs"
	"iolite/internal/wload"
)

// docBytes is the response size of the three fcgi workloads.
const docBytes = 16 << 10

// window is one run's simulated warmup and measurement interval.
type window struct{ warmup, measure time.Duration }

// setupWindow is the window of a set-up run: long enough to build the whole
// topology and start every client, too short to measure anything.
var setupWindow = window{time.Microsecond, time.Millisecond}

// outcome is what one run of a workload reports in simulated terms.
type outcome struct {
	requests, failed int64
	kreqS, mbps      float64
	p50us, p99us     float64
	// copiedKB is the charged copy work per request, or -1 where the
	// runner does not report it.
	copiedKB float64
	// layers holds the layer counters the runner's result exposes.
	layers map[string]float64
	// problems lists the correctness checks that failed.
	problems []string
}

// check records a failed correctness check unless ok.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runFunc runs a workload's generated inputs over one window, tracing into
// col when it is not nil.
type runFunc func(w window, col *obs.Collector) outcome

// workload is one input set of the benchmark.
type workload struct {
	name string
	win  window
	// exact marks workloads whose simulated outputs repeat exactly in every
	// process. web-trace-90mb and fcgi-chaos do not yet.
	exact bool
	// inputs generates the workload's inputs — the input-generation part of
	// set-up — and returns the run over them.
	inputs func() runFunc
}

// Every workload runs its figure's own inputs, whatever the seed. Drawn
// inputs move the simulated metrics by more than their bounds: over trace
// seeds 1-10, sim_kreq_s on web-trace-90mb had an interquartile range of
// 3.6% of its median against a 1% bound, and sim_p99_us on fcgi-chaos 26%
// over fault-plan seeds against a 13% bound (bench/README.md).
//
// The windows give every workload at least 30k measured requests, so the
// p99 has hundreds of samples beyond it, and keep one run within about
// 3-14 s of wall time on a 2-vCPU host.
var workloads = []workload{
	{
		// Fig 10's 90 MB point: Flash-Lite serving the MERGED subtrace
		// prefix, where both the CPU and the disk are busy. Fig 10's trace
		// and client sampling seed.
		name: "web-trace-90mb",
		win:  window{3 * time.Second, 20 * time.Second},
		inputs: func() runFunc {
			tr := wload.Generate(wload.Subtrace150).Prefix(90 << 20)
			return func(w window, col *obs.Collector) outcome {
				r := experiments.RunWeb(experiments.WebParams{
					Server:  experiments.CfgFlashLite,
					Clients: 64,
					Trace:   tr,
					Warmup:  w.warmup,
					Measure: w.measure,
					Seed:    3,
					Obs:     col,
				})
				return outcome{
					requests: r.Requests,
					failed:   r.Errors,
					kreqS:    float64(r.Requests) / w.measure.Seconds() / 1e3,
					mbps:     r.Mbps,
					p50us:    r.P50Us,
					p99us:    r.P99Us,
					copiedKB: -1,
					layers: map[string]float64{
						"cache.hit_rate":  r.HitRate,
						"fsim.disk_util":  r.DiskUtil,
						"cpu.server_util": r.CPUUtil,
					},
				}
			}
		},
	},
	{
		// The most event-dense path: every record rides loopback TCP.
		name:   "fcgi-sockref",
		win:    window{300 * time.Millisecond, 30 * time.Second},
		exact:  true,
		inputs: fcgiNet(experiments.PlaceSockLocal, true),
	},
	{
		// The copy decoder over pipes: real byte copies and heavy GC, and
		// no netsim at all.
		name:   "fcgi-pipecopy",
		win:    window{300 * time.Millisecond, 10 * time.Second},
		exact:  true,
		inputs: fcgiNet(experiments.PlacePipe, false),
	},
	{
		// FigChaos's loss + kills + replay leg: the recovery paths, with
		// FigChaos's fault plan.
		name: "fcgi-chaos",
		win:  window{200 * time.Millisecond, 42 * time.Second},
		inputs: func() runFunc {
			return func(w window, col *obs.Collector) outcome {
				r := experiments.RunChaos(experiments.ChaosParams{
					Workers:    2,
					Depth:      16,
					Requesters: 32,
					DocBytes:   docBytes,
					Think:      40 * time.Millisecond,
					LossProb:   0.01,
					KillEvery:  20 * time.Millisecond,
					Replay:     true,
					Warmup:     w.warmup,
					Measure:    w.measure,
					Obs:        col,
				})
				o := outcome{
					requests: r.Requests,
					failed:   r.Failed,
					kreqS:    r.GoodputKReq,
					mbps:     mbpsOf(r.GoodputKReq),
					p50us:    r.P50Us,
					p99us:    r.P99Us,
					copiedKB: r.CopiedKBPerReq,
					layers: map[string]float64{
						"netsim.retrans_pct": r.RetransPct * 100,
						// Replays and respawns count the whole run, warmup
						// included; the window is at least 99% of it.
						"fcgi.replays_per_kreq":  perReq(float64(r.Replays)*1e3, r.Requests),
						"fcgi.respawns_per_kreq": perReq(float64(r.Respawns)*1e3, r.Requests),
						"core.leak_pages":        float64(r.LeakPages),
					},
				}
				o.check(r.LeakPages == 0, "%d leaked pages", r.LeakPages)
				return o
			}
		},
	},
}

// withWindow returns w measuring over a simulated window of the given
// length, its warmup scaled to match; 0 keeps w's own window.
func (w workload) withWindow(measure time.Duration) workload {
	if measure > 0 {
		w.win = window{max(w.win.warmup*measure/w.win.measure, time.Microsecond), measure}
	}
	return w
}

// fcgiNet is the input generator of the two fault-free fcgi workloads: 4
// workers × depth 8 with 32 closed-loop requesters. Reference payloads
// must cross with no payload copy, copied ones with at least two.
func fcgiNet(place experiments.FCGINetPlacement, ref bool) func() runFunc {
	return func() runFunc {
		return func(w window, col *obs.Collector) outcome {
			r := experiments.RunFCGINet(experiments.FCGINetParams{
				Placement:  place,
				Workers:    4,
				Depth:      8,
				Requesters: 32,
				DocBytes:   docBytes,
				Ref:        ref,
				Warmup:     w.warmup,
				Measure:    w.measure,
				Obs:        col,
			})
			o := outcome{
				requests: r.Requests,
				failed:   r.Failures,
				kreqS:    r.KReqPerSec,
				mbps:     mbpsOf(r.KReqPerSec),
				p50us:    r.P50Us,
				p99us:    r.P99Us,
				copiedKB: perReq(r.CopiedMB*1024, r.Requests),
				layers: map[string]float64{
					"kernel.syscalls_per_req": r.SyscallsPerReq,
					"netsim.pkts_per_req":     r.PktsPerReq,
					"netsim.segs_per_req":     r.SegsPerReq,
					"netsim.acks_per_req":     r.AcksPerReq,
					"netsim.seg_fill":         r.SegFill,
					"cpu.server_util":         r.CPUUtil,
					"cpu.worker_util":         r.WorkerCPUUtil,
				},
			}
			if r.Requests > 0 {
				if ref {
					o.check(o.copiedKB < 1, "ref mode copied %.2f KB/req, want < 1", o.copiedKB)
				} else {
					o.check(o.copiedKB >= 2*docBytes/1024, "copy mode copied %.2f KB/req, want ≥ %d", o.copiedKB, 2*docBytes/1024)
				}
			}
			return o
		}
	}
}

// layerCounters names every layer counter a workload may expose; a counter
// its runner does not report reads 0.
var layerCounters = []string{
	"kernel.syscalls_per_req",
	"netsim.pkts_per_req", "netsim.segs_per_req", "netsim.acks_per_req",
	"netsim.seg_fill", "netsim.retrans_pct",
	"fcgi.replays_per_kreq", "fcgi.respawns_per_kreq",
	"core.leak_pages",
	"cache.hit_rate", "fsim.disk_util",
	"cpu.server_util", "cpu.worker_util",
}

// mbpsOf converts an fcgi request rate to response megabits per second.
func mbpsOf(kreqS float64) float64 { return kreqS * 1e3 * docBytes * 8 / 1e6 }

// perReq divides v by n requests, 0 when there were none.
func perReq(v float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return v / float64(n)
}

// workloadNamed returns the workload called name.
func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
