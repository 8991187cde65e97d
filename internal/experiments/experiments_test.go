package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"iolite/internal/httpd"
	"iolite/internal/wload"
)

// quickWP builds short-window parameters for shape tests.
func quickWP(sc ServerConfig) WebParams {
	return WebParams{
		Server:  sc,
		Clients: 40,
		Warmup:  500 * time.Millisecond,
		Measure: 2 * time.Second,
		Seed:    1,
	}
}

func runSingle(sc ServerConfig, size int64, persistent bool) WebResult {
	wp := quickWP(sc)
	wp.SingleFileSize = size
	wp.Persistent = persistent
	return RunWeb(wp)
}

func TestSingleFileOrderingLargeFiles(t *testing.T) {
	// Figure 3 at 100 KB: Flash-Lite > Flash > Apache, with Flash-Lite
	// 38-43%+ over Flash and roughly 2x over Apache.
	fl := runSingle(CfgFlashLite, 100<<10, false)
	f := runSingle(CfgFlash, 100<<10, false)
	a := runSingle(CfgApache, 100<<10, false)
	if fl.Errors+f.Errors+a.Errors > 0 {
		t.Fatalf("client errors: %d/%d/%d", fl.Errors, f.Errors, a.Errors)
	}
	if !(fl.Mbps > f.Mbps && f.Mbps > a.Mbps) {
		t.Fatalf("ordering broken: FL=%.0f F=%.0f A=%.0f", fl.Mbps, f.Mbps, a.Mbps)
	}
	if r := fl.Mbps / f.Mbps; r < 1.25 || r > 1.9 {
		t.Errorf("Flash-Lite/Flash = %.2f, paper ≈ 1.38-1.43", r)
	}
	if r := fl.Mbps / a.Mbps; r < 1.5 || r > 2.6 {
		t.Errorf("Flash-Lite/Apache = %.2f, paper ≈ 1.73-1.94", r)
	}
}

func TestSingleFileSmallSizesNearParity(t *testing.T) {
	// §5.1: at ≤5 KB, control overheads dominate; Flash ≈ Flash-Lite.
	fl := runSingle(CfgFlashLite, 2<<10, false)
	f := runSingle(CfgFlash, 2<<10, false)
	if r := fl.Mbps / f.Mbps; r < 0.95 || r > 1.35 {
		t.Errorf("small-file FL/F = %.2f, want ≈1", r)
	}
}

func TestPersistentConnectionsHelpSmallFiles(t *testing.T) {
	// §5.2: keep-alive sharply raises small-file rates for Flash-Lite and
	// Flash, while Apache's process model prevents it from benefiting much.
	flNP := runSingle(CfgFlashLite, 5<<10, false)
	flP := runSingle(CfgFlashLite, 5<<10, true)
	aNP := runSingle(CfgApache, 5<<10, false)
	aP := runSingle(CfgApache, 5<<10, true)
	flGain := flP.Mbps / flNP.Mbps
	aGain := aP.Mbps / aNP.Mbps
	if flGain < 1.4 {
		t.Errorf("Flash-Lite keep-alive gain = %.2f, want ≥1.4", flGain)
	}
	if aGain > flGain*0.8 {
		t.Errorf("Apache keep-alive gain %.2f too close to Flash-Lite's %.2f", aGain, flGain)
	}
}

func TestCGIShapes(t *testing.T) {
	// §5.3: Flash-Lite CGI ≈ 87% of its static bandwidth; Flash and Apache
	// roughly halve; Flash-Lite CGI even beats Flash static.
	size := int64(64 << 10)
	flStatic := runSingle(CfgFlashLite, size, false)
	fStatic := runSingle(CfgFlash, size, false)

	wp := quickWP(CfgFlashLite)
	wp.CGISize = size
	flCGI := RunWeb(wp)
	wp = quickWP(CfgFlash)
	wp.CGISize = size
	fCGI := RunWeb(wp)

	if r := flCGI.Mbps / flStatic.Mbps; r < 0.72 {
		t.Errorf("Flash-Lite CGI at %.0f%% of static, paper ≈87%%", r*100)
	}
	if r := fCGI.Mbps / fStatic.Mbps; r > 0.78 {
		t.Errorf("Flash CGI at %.0f%% of static, paper ≈50%%", r*100)
	}
	if flCGI.Mbps <= fStatic.Mbps {
		t.Errorf("Flash-Lite CGI (%.0f) should beat Flash static (%.0f), §5.3", flCGI.Mbps, fStatic.Mbps)
	}
}

func TestTraceSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep skipped in -short")
	}
	// Figure 10: Flash-Lite > Flash > Apache at in-memory and disk-bound
	// extremes; everyone declines from the in-memory regime to 150 MB.
	base := traceFor(wload.Subtrace150)
	small := base.Prefix(30 << 20)
	run := func(sc ServerConfig, tr *wload.Trace) WebResult {
		return RunWeb(WebParams{
			Server: sc, Clients: 64, Trace: tr,
			Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 3,
		})
	}
	for _, tc := range []struct {
		name string
		tr   *wload.Trace
	}{{"in-memory-30MB", small}, {"disk-bound-150MB", base}} {
		fl := run(CfgFlashLite, tc.tr)
		f := run(CfgFlash, tc.tr)
		a := run(CfgApache, tc.tr)
		if !(fl.Mbps > f.Mbps && f.Mbps > a.Mbps) {
			t.Errorf("%s ordering: FL=%.0f F=%.0f A=%.0f", tc.name, fl.Mbps, f.Mbps, a.Mbps)
		}
		if tc.name == "in-memory-30MB" {
			if r := fl.Mbps / f.Mbps; r < 1.2 {
				t.Errorf("in-memory FL/F = %.2f, paper 1.34-1.50", r)
			}
			if fl.DiskUtil > 0.5 {
				t.Errorf("30MB run disk-bound (util %.2f); should fit in memory", fl.DiskUtil)
			}
		} else {
			if r := fl.Mbps / f.Mbps; r < 1.15 {
				t.Errorf("disk-bound FL/F = %.2f, paper 1.44-1.67", r)
			}
		}
	}
	// Decline with data set size.
	flSmall := run(CfgFlashLite, small)
	flBig := run(CfgFlashLite, base)
	if flBig.Mbps >= flSmall.Mbps {
		t.Errorf("no decline with data set size: 30MB=%.0f 150MB=%.0f", flSmall.Mbps, flBig.Mbps)
	}
}

func TestGDSBeatsLRUDiskBound(t *testing.T) {
	if testing.Short() {
		t.Skip("policy ablation skipped in -short")
	}
	// Figure 11: GDS provides a gain over LRU on disk-heavy workloads
	// (paper: 17-28%).
	tr := traceFor(wload.Subtrace150)
	run := func(policy string) WebResult {
		return RunWeb(WebParams{
			Server:  ServerConfig{Kind: httpd.FlashLite, Policy: policy},
			Clients: 64, Trace: tr,
			Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 3,
		})
	}
	gds := run("GDS")
	lru := run("LRU")
	if gds.Mbps <= lru.Mbps {
		t.Errorf("GDS (%.0f) did not beat LRU (%.0f) disk-bound", gds.Mbps, lru.Mbps)
	}
}

func TestChecksumCacheContribution(t *testing.T) {
	// Figure 11: checksum caching is worth ~10-15% on in-memory workloads.
	withCk := runSingle(ServerConfig{Kind: httpd.FlashLite}, 100<<10, false)
	noCk := runSingle(ServerConfig{Kind: httpd.FlashLite, NoCksumCache: true}, 100<<10, false)
	if r := withCk.Mbps / noCk.Mbps; r < 1.05 || r > 1.35 {
		t.Errorf("checksum cache gain = %.2f, paper 1.10-1.15", r)
	}
}

func TestWANDelayShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN sweep skipped in -short")
	}
	// Figure 12: Flash and Apache lose throughput as delay rises (socket
	// buffers eat the file cache); Flash-Lite does not.
	tr := traceFor(wload.Subtrace150).Prefix(120 << 20)
	run := func(sc ServerConfig, delayMs, clients int) WebResult {
		return RunWeb(WebParams{
			Server: sc, Clients: clients, Trace: tr,
			Delay:  time.Duration(delayMs) * time.Millisecond / 2,
			Warmup: 3 * time.Second, Measure: 5 * time.Second, Seed: 4,
		})
	}
	flLAN := run(CfgFlashLite, 0, 64)
	flWAN := run(CfgFlashLite, 150, 900)
	fLAN := run(CfgFlash, 0, 64)
	fWAN := run(CfgFlash, 150, 900)

	if drop := 1 - fWAN.Mbps/fLAN.Mbps; drop < 0.15 {
		t.Errorf("Flash WAN drop = %.0f%%, paper ≈33%%", drop*100)
	}
	if drop := 1 - flWAN.Mbps/flLAN.Mbps; drop > 0.15 {
		t.Errorf("Flash-Lite WAN drop = %.0f%%, paper ≈0%% (slight gain)", drop*100)
	}
}

func TestFig13Shapes(t *testing.T) {
	tb := Fig13(Options{Quick: true})
	check := func(app string, lo, hi float64) {
		r, ok := tb.Value(app, "normalized")
		if !ok {
			t.Fatalf("missing row %q", app)
		}
		if r < lo || r > hi {
			t.Errorf("%s normalized runtime = %.2f, want [%.2f, %.2f]", app, r, lo, hi)
		}
	}
	check("wc", 0.55, 0.72)      // paper 0.63
	check("permute", 0.58, 0.76) // paper 0.67
	check("grep", 0.42, 0.62)    // paper 0.52
	check("gcc", 0.97, 1.03)     // paper ≈1.0
}

func TestFig7Fig9Anchors(t *testing.T) {
	t7 := Fig7(Options{Quick: true})
	if len(t7.Rows) == 0 {
		t.Fatal("empty Fig7 table")
	}
	rf, ok := t7.Value("ECE@5000", "req frac")
	if !ok || rf < 0.85 {
		t.Errorf("ECE@5000 request fraction = %.2f, paper 0.95", rf)
	}
	t9 := Fig9(Options{Quick: true})
	rf, ok = t9.Value("1000", "req frac")
	if !ok || rf < 0.60 || rf > 0.85 {
		t.Errorf("subtrace@1000 request fraction = %.2f, paper 0.74", rf)
	}
}

func TestFig8TraceOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace replay skipped in -short")
	}
	// Figure 8 on ECE: Flash-Lite significantly outperforms Flash and
	// Apache.
	tr := traceFor(wload.ECE)
	run := func(sc ServerConfig) WebResult {
		return RunWeb(WebParams{
			Server: sc, Clients: 64, Trace: tr,
			Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 2,
		})
	}
	fl := run(CfgFlashLite)
	f := run(CfgFlash)
	a := run(CfgApache)
	if !(fl.Mbps > f.Mbps && f.Mbps > a.Mbps) {
		t.Errorf("ECE ordering: FL=%.0f F=%.0f A=%.0f", fl.Mbps, f.Mbps, a.Mbps)
	}
}

func TestRunWebValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunWeb without workload did not panic")
		}
	}()
	RunWeb(WebParams{Server: CfgFlashLite})
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{
		Title:   "t",
		XLabel:  "x",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "r1", Values: []float64{1, 2}}},
		Notes:   []string{"n"},
	}
	if tb.Format() == "" {
		t.Fatal("empty format")
	}
	if v, ok := tb.Value("r1", "b"); !ok || v != 2 {
		t.Fatalf("Value = %v/%v", v, ok)
	}
	if _, ok := tb.Value("r1", "zzz"); ok {
		t.Fatal("found absent column")
	}
	if _, ok := tb.Value("zzz", "a"); ok {
		t.Fatal("found absent row")
	}

	// Names longer than the default width widen their column: each name
	// stays a separate word, and each value ends where its name ends.
	wide := &Table{
		XLabel:  "x",
		Columns: []string{"sock-local ref", "sock-local ref ring", "kills+replay offl"},
		Rows:    []Row{{Label: "r1", Values: []float64{1, 22, 333}}},
	}
	lines := strings.Split(wide.Format(), "\n")
	header, row := lines[1], lines[2]
	if got := strings.Join(strings.Fields(header)[1:], "|"); got != "sock-local|ref|sock-local|ref|ring|kills+replay|offl" {
		t.Errorf("header words %q: column names ran together:\n%s", got, header)
	}
	for i, name := range wide.Columns {
		end := strings.Index(header, name) + len(name)
		val := fmt.Sprintf("%.2f", wide.Rows[0].Values[i])
		if end > len(row) || !strings.HasSuffix(row[:end], " "+val) {
			t.Errorf("value %s not right-aligned under %q:\n%s\n%s", val, name, header, row)
		}
	}
}

// Col returns the index of a named column (-1 if absent).
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the cell at (row label, column name); ok is false if
// missing.
func (t *Table) Value(rowLabel, col string) (float64, bool) {
	ci := t.Col(col)
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			if ci < len(r.Values) {
				return r.Values[ci], true
			}
			return 0, false
		}
	}
	return 0, false
}
