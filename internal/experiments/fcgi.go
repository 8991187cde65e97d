package experiments

import (
	"fmt"
	"strings"
	"time"
)

// The fcgi experiment: the worker-pool scaling study the ROADMAP asks for
// ("requests multiplexed over one pipe pair"), run as RunFCGINet's pipe
// placement. A server process drives an internal/fcgi worker pool
// directly — no HTTP tier, so the pipe transport is the entire data path
// — under a closed-loop population of requesters. Each request models a FastCGI app: parse params, wait on a
// backend (the off-CPU fcgiAppDelay), and stream a cached document back.
// Concurrency comes from two places the figure sweeps independently:
// worker count (processes) and mux depth (in-flight requests per pipe
// pair). Copy mode serializes every response byte through the pipe FIFO;
// ref mode passes the worker's sealed aggregates by reference, so the
// per-request CPU cost collapses to framing and the same hardware
// sustains both more workers' and deeper muxes' worth of overlap.

// fcgiFigPoints is the worker-count x-axis of the scaling figure.
func fcgiFigPoints(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// FigFCGI — worker-pool scaling over the fcgi subsystem: completed
// requests per second versus worker count, for copy- and reference-mode
// records at mux depth 1 (one request per pipe pair at a time — the old
// ad-hoc CGI protocol's shape) and depth 8 (multiplexed). The notes
// quantify the charged copy work: ref mode's stays flat framing bytes
// while copy mode's scales with every response byte moved.
func FigFCGI(opt Options) *Table {
	t := &Table{
		Title:   "FCGI: worker-pool scaling, copy vs ref records (kreq/s)",
		XLabel:  "workers",
		Columns: []string{"copy d=1", "copy d=8", "ref d=1", "ref d=8"},
	}
	warm, meas := 300*time.Millisecond, 1500*time.Millisecond
	if opt.Quick {
		warm, meas = 200*time.Millisecond, 750*time.Millisecond
	}
	configs := []struct {
		ref   bool
		depth int
	}{
		{false, 1}, {false, 8}, {true, 1}, {true, 8},
	}
	for _, n := range fcgiFigPoints(opt.Quick) {
		row := Row{Label: fmt.Sprintf("%d", n)}
		for _, cfg := range configs {
			r := RunFCGINet(FCGINetParams{
				Placement: PlacePipe,
				Workers:   n,
				Depth:     cfg.depth,
				Ref:       cfg.ref,
				Warmup:    warm,
				Measure:   meas,
				Obs:       opt.Trace,
			})
			r.Label = strings.TrimPrefix(r.Label, "pipe ")
			opt.progress("FigFCGI %s: %.1f kreq/s (copied %.1f MB, cpu %.2f, p50 %.0fµs p99 %.0fµs)",
				r.Label, r.KReqPerSec, r.CopiedMB, r.CPUUtil, r.P50Us, r.P99Us)
			row.Values = append(row.Values, r.KReqPerSec)
			if n == 4 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s: copied %.2f MB, cpu %.2f", r.Label, r.CopiedMB, r.CPUUtil))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"16KB docs, 400µs app wait, M = workers × depth closed-loop requesters",
		"d=1 is the old one-request-per-worker pipe protocol; d=8 multiplexes 8 requests per pipe pair",
		"ref-mode response payloads cross pipe and domain boundary by reference: copied MB is framing only")
	return t
}
