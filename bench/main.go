// Command bench is the repository benchmark. It runs one workload of the
// IO-Lite reproduction on its figure's fixed inputs, measures it for a fixed
// wall-clock budget, checks that its outputs are correct, and prints every
// metric by name with its unit. The metrics, their units, directions and
// regression bounds are those BENCHMARK.json at the repository root names.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash bench/run.sh --workload fcgi-sockref --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 3 --record runs.json        # every workload
//	bash bench/run.sh --compare parent.json change.json  # verdicts
//
// With --trace 0 a run reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics from a traced
// run, an untraced run and the layer probes. The last line of standard
// output is the result as one JSON object. The exit status is 1 when a
// correctness check failed. The seed changes no input: it is recorded with
// the result, and -compare pairs runs by it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is the benchmark definition, relative to the repository root.
const specPath = "BENCHMARK.json"

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, wl := range s.Workloads {
		if _, ok := workloadNamed(wl.Name); !ok {
			return nil, fmt.Errorf("%s names workload %q the benchmark does not have", path, wl.Name)
		}
	}
	return &s, nil
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs the benchmark with the given arguments and returns the
// exit status: 0 on success, 1 when a correctness check failed or the
// comparison found a regression, 2 on any other error.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Int64("seed", 1, "run seed, recorded with the result (every workload runs fixed inputs)")
	seconds := fs.Float64("seconds", 0, "wall-clock measurement budget (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	measure := fs.Duration("window", 0, "simulated measure window, warmup scaled to match (default: each workload's own; shorter windows are for smoke tests)")
	traceDir := fs.String("tracedir", ".bench_build/trace", "where a traced run leaves <workload>.pprof and <workload>.trace.json")
	recordPath := fs.String("record", "", "append each run's result to this record file")
	comparePath := fs.String("compare", "", "compare this parent record file with the change record file given as the argument")
	child := fs.String("child", "", "internal: run one measurement as a child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	budget := time.Duration(*seconds * float64(time.Second))
	if *child != "" {
		w, ok := workloadNamed(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		w = w.withWindow(*measure)
		if err := childMain(*child, w, budget, *traceDir); err != nil {
			return fail(err)
		}
		return 0
	}

	spec, err := readSpec(specPath)
	if err != nil {
		return fail(err)
	}
	if *comparePath != "" {
		if fs.NArg() != 1 {
			return fail(fmt.Errorf("-compare needs the change record file as its argument"))
		}
		regressed, err := compare(stdout, spec, *comparePath, fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		budget = time.Duration(spec.RunSeconds) * time.Second
	}
	names := []string{*workloadName}
	if *workloadName == "" {
		names = names[:0]
		for _, wl := range spec.Workloads {
			names = append(names, wl.Name)
		}
	}

	// An interrupted run stops the child it is waiting on before it exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	status := 0
	for _, name := range names {
		w, ok := workloadNamed(name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
		w = w.withWindow(*measure)
		res, err := runWorkload(ctx, stdout, spec, w, *seed, budget, *trace, *traceDir)
		if err != nil {
			return fail(err)
		}
		if *recordPath != "" {
			rec := record{Workload: name, Seed: *seed, Trace: *trace, result: res}
			if err := appendRecord(*recordPath, rec); err != nil {
				return fail(err)
			}
		}
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// runWorkload measures one workload for the budget, prints its metric lines
// and result line, and returns the result.
func runWorkload(ctx context.Context, out io.Writer, spec *benchSpec, w workload, seed int64, budget time.Duration, trace int, traceDir string) (result, error) {
	traced := trace == 1
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%d\n", w.name, seed, budget.Seconds(), trace)
	fmt.Fprintf(out, "# GOMAXPROCS=%d nproc=%d go=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var m map[string]float64
	var problems []string
	var attempted, failed int64
	var reps int
	// collect folds one child's report into the run's counts.
	collect := func(r childResult) {
		attempted += r.Requests + r.Failed
		failed += r.Failed
		problems = append(problems, r.Problems...)
	}
	child := func(mode string) (childResult, error) { return runChild(ctx, mode, w, budget, traceDir) }
	if !traced {
		setup, err := child("setup")
		if err != nil {
			return result{}, err
		}
		var runs []childResult
		err = repeat(budget, func() error {
			r, err := child("run")
			if err != nil {
				return err
			}
			runs = append(runs, r)
			collect(r)
			return nil
		})
		if err != nil {
			return result{}, err
		}
		reps = len(runs)
		m = medians(runs)
		m["setup_s"] = setup.Metrics["setup_s"]
		if _, ok := m["sim_copied_kb_per_req"]; !ok {
			// The runner reports no copy meter (RunWeb): count the
			// charged copies of a traced run of the same inputs instead.
			t, err := child("traced")
			if err != nil {
				return result{}, err
			}
			collect(t)
			m["sim_copied_kb_per_req"] = t.Metrics["obs.charge.copy_kb"]
			fmt.Fprintf(out, "# sim_copied_kb_per_req: the runner reports no copy meter; counted in a traced run as obs.charge.copy_kb\n")
		}
		m["ok_frac"] = perReq(float64(attempted-failed), attempted)
		problems = append(problems, sameSim(w, runs, out)...)
	} else {
		var untraced, tracedRuns []childResult
		err := repeat(budget, func() error {
			r, err := child("run")
			if err != nil {
				return err
			}
			t, err := child("traced")
			if err != nil {
				return err
			}
			untraced, tracedRuns = append(untraced, r), append(tracedRuns, t)
			collect(r)
			collect(t)
			return nil
		})
		if err != nil {
			return result{}, err
		}
		// The probes do not depend on the workload; every traced run
		// repeats them so that its result holds every per-layer metric.
		probe, err := child("probe")
		if err != nil {
			return result{}, err
		}
		reps = len(untraced)
		m = medians(untraced)
		tm := medians(tracedRuns)
		for name, v := range tm {
			if strings.HasPrefix(name, "obs.") {
				m[name] = v
			}
		}
		// The medians of the layers need not add up to the median total;
		// rescale them so that they do.
		var sum float64
		for _, l := range hostLayers {
			sum += tm["host."+l+"_us_per_req"]
		}
		for _, l := range hostLayers {
			name := "host." + l + "_us_per_req"
			m[name] = 0
			if sum > 0 {
				m[name] = tm[name] * tm["host_us_per_req"] / sum
			}
		}
		m["host.traced_us_per_req"] = tm["host_us_per_req"]
		m["host.trace_overhead_pct"] = 100 * (tm["host_us_per_req"]/m["host_us_per_req"] - 1)
		for name, v := range probe.Metrics {
			m[name] = v
		}
		fmt.Fprintf(out, "# trace and CPU profile in %s\n", traceDir)
	}
	fmt.Fprintf(out, "# runs=%d\n", reps)

	group := spec.EndToEnd
	if traced {
		group = spec.PerLayer
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, ms := range group {
		v, ok := m[ms.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: the benchmark does not measure %s", w.name, ms.Name)
		}
		res.Metrics[ms.Name] = metricValue{v, ms.Unit}
		line := fmt.Sprintf("%s %s %.6g %s", w.name, ms.Name, v, ms.Unit)
		if ms.Name == "sim_p50_us" || ms.Name == "sim_p99_us" {
			line += fmt.Sprintf(" n=%d", int64(m["sim_n"]))
		}
		fmt.Fprintln(out, line)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "# FAIL %s: %s\n", w.name, p)
	}
	res.Correct = len(problems) == 0 && attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// repeat calls run at least once, then again for as long as one more run,
// taking as long as the last, still fits in the budget.
func repeat(budget time.Duration, run func() error) error {
	deadline := time.Now().Add(budget)
	for {
		t0 := time.Now()
		if err := run(); err != nil {
			return err
		}
		if time.Now().Add(time.Since(t0)).After(deadline) {
			return nil
		}
	}
}

// medians returns each metric's median over the runs.
func medians(runs []childResult) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range runs {
		for name, v := range r.Metrics {
			vals[name] = append(vals[name], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for name, v := range vals {
		out[name] = median(v)
	}
	return out
}

// sameSim checks that the runs reproduced their simulated outputs. A
// workload not yet exact gets a note instead of a failure.
func sameSim(w workload, runs []childResult, out io.Writer) []string {
	for _, r := range runs[1:] {
		for name, v := range r.Metrics {
			if !strings.HasPrefix(name, "sim_") || v == runs[0].Metrics[name] {
				continue
			}
			msg := fmt.Sprintf("%s differs between runs of the same inputs: %v vs %v", name, runs[0].Metrics[name], v)
			if w.exact {
				return []string{msg}
			}
			fmt.Fprintf(out, "# note %s: %s (not yet deterministic across processes; see bench/README.md)\n", w.name, msg)
			return nil
		}
	}
	return nil
}
