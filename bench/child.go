package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"iolite/internal/obs"
	"iolite/internal/sim"
)

// Every measurement runs in a child process of its own, so heap, GC and
// max RSS belong to one run of one workload. The child prints a childResult
// as the last line of its standard output.

// childResult is one child process's report.
type childResult struct {
	Requests int64              `json:"requests"`
	Failed   int64              `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems,omitempty"`
}

// Set-up is repeated at least setupRuns times and for at least a
// twentieth of the run's budget; setup_s is the median. The fcgi workloads
// set up in milliseconds, so they get hundreds of repetitions and a steady
// median.
const setupRuns = 3

// runChild starts this program in child mode and returns its report, with
// the child's max RSS added as max_rss_mb. The child is killed if ctx ends
// first.
func runChild(ctx context.Context, mode string, w workload, budget time.Duration, traceDir string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name,
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'g', -1, 64), "-window", w.win.measure.String(), "-tracedir", traceDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child for %s: %w", mode, w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child for %s: bad report: %w", mode, w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // KB on Linux
	}
	return res, nil
}

// childMain runs one child mode and prints its report, its host times
// scaled by the reference loop timed before and after. budget is the
// parent's measurement budget, which set-up and the probes take a share of.
func childMain(mode string, w workload, budget time.Duration, traceDir string) error {
	var res childResult
	var err error
	before := refTime()
	switch mode {
	case "setup":
		res = childSetup(w, budget/20)
	case "run":
		res, err = childRun(w)
	case "traced":
		res, err = childTraced(w, traceDir)
	case "probe":
		res = childResult{Metrics: runProbes(budget / 200)}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	scaleHostTimes(res.Metrics, (before+refTime())/2)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// childSetup times input generation plus a set-up-window run of the same
// topology, at least setupRuns times and for at least minTime, and reports
// the median.
func childSetup(w workload, minTime time.Duration) childResult {
	var times []float64
	for start := time.Now(); len(times) < setupRuns || time.Since(start) < minTime; {
		t0 := time.Now()
		w.inputs()(setupWindow, nil)
		times = append(times, time.Since(t0).Seconds())
	}
	return childResult{Metrics: map[string]float64{"setup_s": median(times)}}
}

// hostMeter reads the process counters the host metrics are deltas of.
type hostMeter struct {
	at             time.Time
	mallocs, bytes uint64
	gcCPU, busyCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readHost() hostMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return hostMeter{
		at:      time.Now(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   cpuSamples[0].Value.Float64(),
		busyCPU: cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64(),
	}
}

// timedRun generates the inputs untimed, then runs them over the
// workload's window and reports the simulated outcome with the host cost
// of the run call: wall µs, allocations and allocated KB per simulated
// request, and GC's share of busy CPU. With prof set, the run call is
// CPU-profiled into it.
func timedRun(w workload, col *obs.Collector, prof io.Writer) (outcome, map[string]float64, error) {
	run := w.inputs()
	runtime.GC()
	h0 := readHost()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return outcome{}, nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	o := run(w.win, col)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	h1 := readHost()
	o.check(o.requests > 0, "no requests completed")
	o.check(o.failed == 0, "%d requests failed", o.failed)
	host := map[string]float64{
		"host_us_per_req":       perReq(float64(h1.at.Sub(h0.at).Microseconds()), o.requests),
		"host_allocs_per_req":   perReq(float64(h1.mallocs-h0.mallocs), o.requests),
		"host_alloc_kb_per_req": perReq(float64(h1.bytes-h0.bytes)/1024, o.requests),
	}
	if busy := h1.busyCPU - h0.busyCPU; busy > 0 {
		host["host.gc_cpu_pct"] = 100 * (h1.gcCPU - h0.gcCPU) / busy
	} else {
		host["host.gc_cpu_pct"] = 0
	}
	return o, host, nil
}

// childRun is the untraced measured run: the end-to-end metrics a run
// measures, plus the layer counters of the runner's result. The parent adds
// RSS, set-up time and the failure fraction.
func childRun(w workload) (childResult, error) {
	o, m, err := timedRun(w, nil, nil)
	if err != nil {
		return childResult{}, err
	}
	m["sim_kreq_s"] = o.kreqS
	m["sim_mbps"] = o.mbps
	m["sim_p50_us"] = o.p50us
	m["sim_p99_us"] = o.p99us
	m["sim_n"] = float64(o.requests)
	if o.copiedKB >= 0 {
		m["sim_copied_kb_per_req"] = o.copiedKB
	}
	for _, name := range layerCounters {
		m[name] = o.layers[name]
	}
	return childResult{Requests: o.requests, Failed: o.failed, Metrics: m, Problems: o.problems}, nil
}

// childTraced is the traced run: the obs collector attached through the
// runner's Obs parameter and a CPU profile of the run call. It reports
// simulated time and charges per finished request by phase, and host time
// per request by package, and leaves <workload>.pprof and
// <workload>.trace.json in traceDir.
func childTraced(w workload, traceDir string) (childResult, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return childResult{}, err
	}
	profPath := filepath.Join(traceDir, w.name+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return childResult{}, err
	}
	defer pf.Close()
	col := obs.New()
	o, host, err := timedRun(w, col, pf)
	if err != nil {
		return childResult{}, err
	}
	if err := pf.Close(); err != nil {
		return childResult{}, fmt.Errorf("write %s: %w", profPath, err)
	}

	m := map[string]float64{"host_us_per_req": host["host_us_per_req"]}
	var spans int64
	for _, k := range col.Kinds() {
		spans += col.Hist(k).Count()
	}
	o.check(spans > 0, "traced run finished no spans")
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		m["obs.phase."+ph.String()+"_us"] = perReq(float64(col.PhaseTotal(ph))/1e3, spans)
	}
	for k, name := range map[sim.ChargeKind]string{
		sim.ChargeCopy:    "obs.charge.copy_kb",
		sim.ChargeCksum:   "obs.charge.cksum_kb",
		sim.ChargeSyscall: "obs.charge.syscalls",
		sim.ChargeWire:    "obs.charge.wire_kb",
	} {
		var n int64
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			n += col.ChargeTotal(ph, k)
		}
		v := perReq(float64(n), spans)
		if k != sim.ChargeSyscall {
			v /= 1024
		}
		m[name] = v
	}

	prof, err := os.ReadFile(profPath)
	if err != nil {
		return childResult{}, err
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return childResult{}, fmt.Errorf("decode %s: %w", profPath, err)
	}
	for _, layer := range hostLayers {
		m["host."+layer+"_us_per_req"] = shares[layer] * host["host_us_per_req"]
	}

	tracePath := filepath.Join(traceDir, w.name+".trace.json")
	tf, err := os.Create(tracePath)
	if err != nil {
		return childResult{}, err
	}
	defer tf.Close()
	if err := col.WriteTrace(tf); err != nil {
		return childResult{}, fmt.Errorf("write %s: %w", tracePath, err)
	}
	if err := tf.Close(); err != nil {
		return childResult{}, fmt.Errorf("write %s: %w", tracePath, err)
	}
	return childResult{Requests: o.requests, Failed: o.failed, Metrics: m, Problems: o.problems}, nil
}
