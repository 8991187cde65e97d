package experiments

import (
	"fmt"
	"time"

	"iolite/internal/httpd"
	"iolite/internal/obs"
	"iolite/internal/wload"
)

// Options tunes experiment durations. Quick mode runs fewer points with
// shorter windows — the shapes survive; the absolute noise grows slightly.
type Options struct {
	Quick bool
	// Progress receives progress lines (may be nil).
	Progress func(string)
	// Trace, when set, turns on request-lifecycle tracing: every figure
	// run attaches this collector, and the caller exports it (webbench
	// -trace). Nil keeps the hot paths at their zero-cost default.
	Trace *obs.Collector
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// singleFileSizes is Figure 3/4's x-axis: "the data points below 20KB are
// 500 bytes, 1KB, 2KB, 3KB, 5KB, 7KB, 10KB, and 15KB", then up to 200 KB.
func singleFileSizes(quick bool) []int64 {
	if quick {
		return []int64{500, 5 << 10, 20 << 10, 100 << 10, 200 << 10}
	}
	return []int64{500, 1 << 10, 2 << 10, 3 << 10, 5 << 10, 7 << 10, 10 << 10,
		15 << 10, 20 << 10, 50 << 10, 100 << 10, 150 << 10, 200 << 10}
}

func sizeLabel(n int64) string {
	if n < 1024 {
		return fmt.Sprintf("%dB", n)
	}
	return fmt.Sprintf("%dKB", n>>10)
}

// webServers is the standard three-way comparison.
var webServers = []ServerConfig{CfgFlashLite, CfgFlash, CfgApache}

// singleFileFigure runs the Figure 3/4/5/6 family: 40 clients requesting
// one document of varying size.
func singleFileFigure(title string, cgi, persistent bool, opt Options) *Table {
	t := &Table{
		Title:   title,
		XLabel:  "doc size",
		Columns: []string{"Flash-Lite", "Flash", "Apache"},
	}
	warm, meas := 1*time.Second, 4*time.Second
	if opt.Quick {
		warm, meas = 500*time.Millisecond, 2*time.Second
	}
	for _, size := range singleFileSizes(opt.Quick) {
		row := Row{Label: sizeLabel(size)}
		for _, sc := range webServers {
			wp := WebParams{
				Server:     sc,
				Clients:    40,
				Persistent: persistent,
				Warmup:     warm,
				Measure:    meas,
				Seed:       1,
				Obs:        opt.Trace,
			}
			if cgi {
				wp.CGISize = size
			} else {
				wp.SingleFileSize = size
			}
			r := RunWeb(wp)
			opt.progress("%s %s %s: %.1f Mb/s (%d reqs)", title, row.Label, sc.Label(), r.Mbps, r.Requests)
			row.Values = append(row.Values, r.Mbps)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "values are aggregate client bandwidth in Mb/s; 40 clients, 5 machines, 5x100 Mb/s")
	return t
}

// Fig3 — HTTP single-file test, nonpersistent connections (§5.1).
func Fig3(opt Options) *Table {
	return singleFileFigure("Figure 3: HTTP single-file, nonpersistent", false, false, opt)
}

// Fig4 — persistent-connection single-file test (§5.2).
func Fig4(opt Options) *Table {
	return singleFileFigure("Figure 4: HTTP single-file, persistent", false, true, opt)
}

// Fig5 — FastCGI dynamic documents, nonpersistent (§5.3).
func Fig5(opt Options) *Table {
	return singleFileFigure("Figure 5: HTTP/FastCGI, nonpersistent", true, false, opt)
}

// Fig6 — FastCGI dynamic documents, persistent (§5.3).
func Fig6(opt Options) *Table {
	return singleFileFigure("Figure 6: HTTP/FastCGI, persistent", true, true, opt)
}

// Fig7 — trace characteristics: cumulative request and data-size fractions
// by file popularity rank for ECE, CS and MERGED (§5.4).
func Fig7(opt Options) *Table {
	t := &Table{
		Title:  "Figure 7: trace characteristics (cumulative fractions at popularity ranks)",
		XLabel: "trace/rank",
		Columns: []string{
			"req frac", "size frac",
		},
	}
	for _, spec := range []wload.TraceSpec{wload.ECE, wload.CS, wload.MERGED} {
		tr := wload.Generate(spec)
		opt.progress("Fig7 %s: %d files, %d MB, mean req %d KB",
			spec.Name, spec.Files, spec.TotalBytes>>20, tr.MeanRequestBytes()>>10)
		for _, rank := range []int{1000, 5000, 10000, 20000, spec.Files} {
			if rank > spec.Files {
				continue
			}
			rf, sf := tr.FracAtRank(rank)
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%s@%d", spec.Name, rank),
				Values: []float64{rf, sf},
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper anchors: ECE@5000 = 95% of requests / 39% of 523MB",
		"ECE 783529 reqs/10195 files; CS 3746842/26948; MERGED 2290909/37703")
	return t
}

// traceFor caches generated traces (generation is deterministic but costs a
// second or two for the big logs).
var traceCache = map[string]*wload.Trace{}

func traceFor(spec wload.TraceSpec) *wload.Trace {
	if tr, ok := traceCache[spec.Name]; ok {
		return tr
	}
	tr := wload.Generate(spec)
	traceCache[spec.Name] = tr
	return tr
}

// Fig8 — overall trace performance: 64 clients replaying each full trace
// against each server (§5.4).
func Fig8(opt Options) *Table {
	t := &Table{
		Title:   "Figure 8: overall trace performance (Mb/s)",
		XLabel:  "trace",
		Columns: []string{"Flash-Lite", "Flash", "Apache"},
	}
	specs := []wload.TraceSpec{wload.ECE, wload.CS, wload.MERGED}
	if opt.Quick {
		specs = []wload.TraceSpec{wload.ECE, wload.MERGED}
	}
	warm, meas := 6*time.Second, 12*time.Second
	if opt.Quick {
		warm, meas = 3*time.Second, 6*time.Second
	}
	for _, spec := range specs {
		tr := traceFor(spec)
		row := Row{Label: spec.Name}
		for _, sc := range webServers {
			r := RunWeb(WebParams{
				Server:     sc,
				Clients:    64,
				Persistent: false,
				Trace:      tr,
				Warmup:     warm,
				Measure:    meas,
				Seed:       2,
				Obs:        opt.Trace,
			})
			opt.progress("Fig8 %s %s: %.1f Mb/s (hit %.2f disk %.2f)", spec.Name, sc.Label(), r.Mbps, r.HitRate, r.DiskUtil)
			row.Values = append(row.Values, r.Mbps)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig9 — 150 MB subtrace characteristics (§5.5).
func Fig9(opt Options) *Table {
	tr := traceFor(wload.Subtrace150)
	t := &Table{
		Title:   "Figure 9: 150MB subtrace characteristics",
		XLabel:  "rank",
		Columns: []string{"req frac", "size frac"},
	}
	for _, rank := range []int{100, 500, 1000, 2000, 5459} {
		rf, sf := tr.FracAtRank(rank)
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d", rank), Values: []float64{rf, sf}})
	}
	t.Notes = append(t.Notes, "paper anchor: top 1000 files = 74% of requests / 20% of 150MB",
		fmt.Sprintf("generated mean request size: %d KB", tr.MeanRequestBytes()>>10))
	opt.progress("Fig9 generated: %d files, %d MB", tr.Spec.Files, tr.DataBytes()>>20)
	return t
}

// subtraceSizes is Figure 10/11's x-axis of data-set sizes.
func subtraceSizes(quick bool) []int64 {
	if quick {
		return []int64{30 << 20, 90 << 20, 150 << 20}
	}
	return []int64{15 << 20, 30 << 20, 60 << 20, 90 << 20, 120 << 20, 150 << 20}
}

// subtraceFigure fills t with the Figure 10/11 sweep: one column per
// server config, one row per data-set size of the MERGED subtrace.
func subtraceFigure(t *Table, configs []ServerConfig, opt Options) *Table {
	t.XLabel = "data set"
	sizes := subtraceSizes(opt.Quick)
	for _, ds := range sizes {
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%dMB", ds>>20)})
	}
	warm, meas := 5*time.Second, 10*time.Second
	if opt.Quick {
		warm, meas = 3*time.Second, 5*time.Second
	}
	base := traceFor(wload.Subtrace150)
	for _, sc := range configs {
		for i, ds := range sizes {
			tr := base
			if ds < base.DataBytes() {
				tr = base.Prefix(ds)
			}
			r := RunWeb(WebParams{
				Server:     sc,
				Clients:    64,
				Persistent: false,
				Trace:      tr,
				Warmup:     warm,
				Measure:    meas,
				Seed:       3,
				Obs:        opt.Trace,
			})
			opt.progress("subtrace %dMB %s: %.1f Mb/s (hit %.2f disk %.2f cpu %.2f)",
				ds>>20, sc.Label(), r.Mbps, r.HitRate, r.DiskUtil, r.CPUUtil)
			t.Rows[i].Values = append(t.Rows[i].Values, r.Mbps)
		}
	}
	return t
}

// Fig10 — MERGED subtrace performance vs data set size (§5.5).
func Fig10(opt Options) *Table {
	return subtraceFigure(&Table{
		Title:   "Figure 10: MERGED subtrace performance (Mb/s)",
		Columns: []string{"Flash-Lite", "Flash", "Apache"},
	}, webServers, opt)
}

// Fig11 — optimization contributions: Flash-Lite with {GDS, LRU} × {cksum
// cache on, off}, plus Flash for reference (§5.6).
func Fig11(opt Options) *Table {
	return subtraceFigure(&Table{
		Title: "Figure 11: optimization contributions (Mb/s)",
		Columns: []string{
			"FlashLite", "FlashLite LRU", "FlashLite no-ck", "FlashLite LRU no-ck", "Flash",
		},
	}, []ServerConfig{
		{Kind: httpd.FlashLite},
		{Kind: httpd.FlashLite, Policy: "LRU"},
		{Kind: httpd.FlashLite, NoCksumCache: true},
		{Kind: httpd.FlashLite, Policy: "LRU", NoCksumCache: true},
		{Kind: httpd.Flash},
	}, opt)
}

// fig12Points are Figure 12's x-axis: the round-trip WAN delay, with the
// client population scaled linearly 64→900 to keep the server saturated
// (§5.7). Delay here is one-way (the paper quotes round trip).
var fig12Points = []struct {
	rttMs   int
	clients int
}{
	{0, 64}, {5, 92}, {50, 343}, {100, 620}, {150, 900},
}

// Fig12 — throughput versus WAN delay with a 120 MB data set (§5.7).
func Fig12(opt Options) *Table {
	t := &Table{
		Title:   "Figure 12: throughput vs WAN delay, 120MB data set (Mb/s)",
		XLabel:  "RTT delay",
		Columns: []string{"Flash-Lite", "Flash", "Apache"},
	}
	base := traceFor(wload.Subtrace150)
	tr := base.Prefix(120 << 20)
	points := fig12Points
	if opt.Quick {
		points = points[:0]
		points = append(points, fig12Points[0], fig12Points[2], fig12Points[4])
	}
	warm, meas := 6*time.Second, 10*time.Second
	if opt.Quick {
		warm, meas = 4*time.Second, 6*time.Second
	}
	for _, pt := range points {
		label := "LAN"
		if pt.rttMs > 0 {
			label = fmt.Sprintf("%dms", pt.rttMs)
		}
		row := Row{Label: label}
		for _, sc := range webServers {
			r := RunWeb(WebParams{
				Server:     sc,
				Clients:    pt.clients,
				Persistent: false,
				Delay:      time.Duration(pt.rttMs) * time.Millisecond / 2,
				Trace:      tr,
				Warmup:     warm,
				Measure:    meas,
				Seed:       4,
				Obs:        opt.Trace,
			})
			opt.progress("Fig12 %s %s (%d clients): %.1f Mb/s (hit %.2f)", label, sc.Label(), pt.clients, r.Mbps, r.HitRate)
			row.Values = append(row.Values, r.Mbps)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
