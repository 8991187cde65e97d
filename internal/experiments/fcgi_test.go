package experiments

import (
	"testing"
	"time"
)

// fcgiQuick returns one quick result of the scaling study: RunFCGINet's
// pipe placement.
func fcgiQuick(workers, depth int, ref bool) FCGINetResult {
	return RunFCGINet(FCGINetParams{
		Placement: PlacePipe,
		Workers:   workers,
		Depth:     depth,
		Ref:       ref,
		Warmup:    150 * time.Millisecond,
		Measure:   600 * time.Millisecond,
	})
}

// TestFCGIScalingShapes pins the scaling study's qualitative claims:
// throughput grows with worker count and with mux depth (both hide the
// app's backend wait), ref mode beats copy mode once copies bound the
// CPU, and the charged copy work separates the modes by orders of
// magnitude.
func TestFCGIScalingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run scaling study")
	}
	ref1 := fcgiQuick(1, 1, true)
	ref4 := fcgiQuick(4, 1, true)
	refDeep := fcgiQuick(1, 8, true)
	copy4 := fcgiQuick(4, 8, false)
	ref32 := fcgiQuick(4, 8, true)

	for _, r := range []FCGINetResult{ref1, ref4, refDeep, copy4, ref32} {
		if r.Failures != 0 {
			t.Fatalf("%s: %d failed requests", r.Label, r.Failures)
		}
		if r.Requests == 0 {
			t.Fatalf("%s: no requests completed", r.Label)
		}
	}

	// Worker scaling: 4 workers overlap 4 backend waits.
	if ref4.KReqPerSec < 2.5*ref1.KReqPerSec {
		t.Errorf("4 workers = %.1f kreq/s vs 1 worker %.1f; want ≥2.5x", ref4.KReqPerSec, ref1.KReqPerSec)
	}
	// Mux-depth scaling: 8 in-flight requests over ONE pipe pair overlap
	// the same waits without extra processes.
	if refDeep.KReqPerSec < 2.5*ref1.KReqPerSec {
		t.Errorf("depth 8 = %.1f kreq/s vs depth 1 %.1f; want ≥2.5x", refDeep.KReqPerSec, ref1.KReqPerSec)
	}
	// Zero-copy records raise the throughput ceiling.
	if ref32.KReqPerSec < 2*copy4.KReqPerSec {
		t.Errorf("ref %.1f kreq/s vs copy %.1f; want ≥2x", ref32.KReqPerSec, copy4.KReqPerSec)
	}
	// And the copy meter tells the why: copy mode moves every payload
	// byte (twice), ref mode charges framing only.
	if ref32.CopiedMB*20 > copy4.CopiedMB {
		t.Errorf("ref copied %.2f MB vs copy %.2f MB; want ≥20x separation", ref32.CopiedMB, copy4.CopiedMB)
	}
}

// TestFigFCGITable checks the figure assembles with the right axes.
func TestFigFCGITable(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure")
	}
	tbl := FigFCGI(Options{Quick: true})
	if len(tbl.Rows) != 2 || len(tbl.Columns) != 4 {
		t.Fatalf("table %dx%d, want 2 rows x 4 cols", len(tbl.Rows), len(tbl.Columns))
	}
	for _, row := range tbl.Rows {
		for i, v := range row.Values {
			if v <= 0 {
				t.Errorf("row %s col %s: %.2f kreq/s", row.Label, tbl.Columns[i], v)
			}
		}
	}
	// Depth 8 must beat depth 1 for both modes on every row.
	for _, row := range tbl.Rows {
		if row.Values[1] <= row.Values[0] {
			t.Errorf("workers=%s: copy d=8 (%.1f) not above d=1 (%.1f)", row.Label, row.Values[1], row.Values[0])
		}
		if row.Values[3] <= row.Values[2] {
			t.Errorf("workers=%s: ref d=8 (%.1f) not above d=1 (%.1f)", row.Label, row.Values[3], row.Values[2])
		}
	}
}
