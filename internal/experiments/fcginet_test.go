package experiments

import (
	"runtime"
	"testing"
	"time"
)

// fcgiNetQuick returns one quick RunFCGINet result.
func fcgiNetQuick(placement FCGINetPlacement, ref bool) FCGINetResult {
	return RunFCGINet(FCGINetParams{
		Placement: placement,
		Workers:   2,
		Depth:     4,
		Ref:       ref,
		Warmup:    150 * time.Millisecond,
		Measure:   600 * time.Millisecond,
	})
}

// TestFCGINetLANTaxShapes pins the transport study's qualitative claims:
// every placement serves without failures; pipes beat sockets (the
// protocol path is the first installment of the LAN tax); and the copy
// meter tells the boundary story — ref mode charges ~nothing on-machine,
// exactly the payload volume once it crosses to a remote machine, and
// copy mode at least twice that everywhere.
func TestFCGINetLANTaxShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run transport study")
	}
	results := map[FCGINetPlacement]map[bool]FCGINetResult{}
	for _, placement := range Placements {
		results[placement] = map[bool]FCGINetResult{}
		for _, ref := range []bool{false, true} {
			r := fcgiNetQuick(placement, ref)
			if r.Failures != 0 {
				t.Fatalf("%s: %d failed requests", r.Label, r.Failures)
			}
			if r.Requests == 0 {
				t.Fatalf("%s: no requests completed", r.Label)
			}
			results[placement][ref] = r
		}
	}

	pipeRef := results[PlacePipe][true]
	localRef := results[PlaceSockLocal][true]
	remoteRef := results[PlaceSockRemote][true]
	remoteCopy := results[PlaceSockRemote][false]

	// The protocol path costs throughput: pipes beat sockets in ref mode.
	if pipeRef.KReqPerSec <= localRef.KReqPerSec {
		t.Errorf("pipe ref %.1f kreq/s not above sock-local ref %.1f — no transport tax?",
			pipeRef.KReqPerSec, localRef.KReqPerSec)
	}
	// Copy-meter ordering: pipe ref ≈ framing ≪ remote ref ≈ payload once
	// < remote copy ≥ payload twice.
	if pipeRef.CopiedMB*20 > remoteRef.CopiedMB {
		t.Errorf("pipe ref copied %.2f MB vs remote ref %.2f MB; want ≥20x separation (the boundary copy)",
			pipeRef.CopiedMB, remoteRef.CopiedMB)
	}
	if localRef.CopiedMB*20 > remoteRef.CopiedMB {
		t.Errorf("sock-local ref copied %.2f MB vs remote ref %.2f MB; local sockets must stay zero-copy",
			localRef.CopiedMB, remoteRef.CopiedMB)
	}
	if remoteCopy.CopiedMB < 1.8*remoteRef.CopiedMB {
		t.Errorf("remote copy %.2f MB vs remote ref %.2f MB; copy mode must pay both sides of the boundary",
			remoteCopy.CopiedMB, remoteRef.CopiedMB)
	}
	// The remote worker machine actually carries work.
	if remoteRef.WorkerCPUUtil <= 0 {
		t.Error("remote placement shows an idle worker machine")
	}
}

// TestAcceptanceRingClosesSyscallGap is this PR's acceptance pin at the
// experiment layer: ring-based sock-local ref fcgi at depth 16 pays at
// most 1/4 of the per-op baseline's syscall charges per request, and the
// saved kernel crossings show up as throughput — sock-local ref kreq/s
// moves toward the pipe placement's figure.
func TestAcceptanceRingClosesSyscallGap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run acceptance study")
	}
	run := func(placement FCGINetPlacement, ring bool) FCGINetResult {
		r := RunFCGINet(FCGINetParams{
			Placement: placement,
			Workers:   2,
			Depth:     16,
			Ref:       true,
			Ring:      ring,
			Warmup:    150 * time.Millisecond,
			Measure:   600 * time.Millisecond,
		})
		if r.Failures != 0 || r.Requests == 0 {
			t.Fatalf("%s: %d requests, %d failures", r.Label, r.Requests, r.Failures)
		}
		return r
	}
	base := run(PlaceSockLocal, false)
	ring := run(PlaceSockLocal, true)
	pipe := run(PlacePipe, false)

	t.Logf("sock-local ref d=16: %.1f → %.1f sys/req, %.1f → %.1f kreq/s (pipe %.1f)",
		base.SyscallsPerReq, ring.SyscallsPerReq, base.KReqPerSec, ring.KReqPerSec, pipe.KReqPerSec)
	if ring.SyscallsPerReq > base.SyscallsPerReq/4 {
		t.Errorf("ring pays %.1f sys/req vs %.1f baseline; want ≤ 1/4",
			ring.SyscallsPerReq, base.SyscallsPerReq)
	}
	// "Improves toward the pipe figure": the sock-local machine is CPU-
	// saturated, and most of its per-request budget is per-segment
	// protocol work the ring cannot remove — the LAN tax's other
	// installment. The kernel-crossing installment does come back out,
	// though: a ≥10% throughput gain, not noise, with pipe still ahead.
	if ring.KReqPerSec < 1.10*base.KReqPerSec {
		t.Errorf("ring %.1f kreq/s vs baseline %.1f; want ≥ +10%% — saved syscalls didn't buy throughput",
			ring.KReqPerSec, base.KReqPerSec)
	}
	if pipe.KReqPerSec <= ring.KReqPerSec {
		t.Errorf("pipe %.1f kreq/s not above ring sock-local %.1f — the protocol path should still cost",
			pipe.KReqPerSec, ring.KReqPerSec)
	}
}

// TestFigFCGINetTable checks the figure assembles with the right axes:
// every placement × mode at ≥2 worker counts, all serving.
func TestFigFCGINetTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure")
	}
	tbl := FigFCGINet(Options{Quick: true})
	if len(tbl.Rows) < 2 || len(tbl.Columns) != 8 {
		t.Fatalf("table %dx%d, want ≥2 rows x 8 cols", len(tbl.Rows), len(tbl.Columns))
	}
	for _, row := range tbl.Rows {
		if len(row.Values) != len(tbl.Columns) {
			t.Fatalf("row %s has %d values for %d columns", row.Label, len(row.Values), len(tbl.Columns))
		}
		for i, v := range row.Values {
			if v <= 0 {
				t.Errorf("row %s col %s: %.2f kreq/s", row.Label, tbl.Columns[i], v)
			}
		}
	}
}

// TestAcceptanceOffloadClosesProtocolGap is this PR's acceptance pin:
// LSO/GRO segment offload on the sock-local ref placement at least
// doubles kreq/s, total packets per request (data + acks) fall to at
// most 55% of the offload-off baseline, the same MSS-granular chunks
// still cross the wire, and the tail does not regress.
func TestAcceptanceOffloadClosesProtocolGap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run acceptance study")
	}
	run := func(offload bool) FCGINetResult {
		r := RunFCGINet(FCGINetParams{
			Placement: PlaceSockLocal,
			Workers:   2,
			Depth:     16,
			Ref:       true,
			Offload:   offload,
			Warmup:    150 * time.Millisecond,
			Measure:   600 * time.Millisecond,
		})
		if r.Failures != 0 || r.Requests == 0 {
			t.Fatalf("%s: %d requests, %d failures", r.Label, r.Requests, r.Failures)
		}
		return r
	}
	off := run(false)
	on := run(true)

	t.Logf("sock-local ref d=16: %.1f → %.1f kreq/s, %.1f+%.1f → %.1f+%.1f pkts+acks/req, p99 %.0f → %.0fµs",
		off.KReqPerSec, on.KReqPerSec, off.PktsPerReq, off.AcksPerReq, on.PktsPerReq, on.AcksPerReq,
		off.P99Us, on.P99Us)
	if on.KReqPerSec < 2*off.KReqPerSec {
		t.Errorf("offload %.1f kreq/s vs %.1f baseline; want ≥ 2x — super-segment charging didn't bite",
			on.KReqPerSec, off.KReqPerSec)
	}
	offWire := off.PktsPerReq + off.AcksPerReq
	onWire := on.PktsPerReq + on.AcksPerReq
	if onWire > 0.55*offWire {
		t.Errorf("offload moves %.1f pkts+acks/req vs %.1f baseline; want ≤ 55%%",
			onWire, offWire)
	}
	// Without offload every charged unit is one MSS chunk; with it the
	// ack meter must be populated and the wire still carries MSS chunks.
	if off.SegsPerReq != off.PktsPerReq {
		t.Errorf("offload-off segs/req %.2f != pkts/req %.2f", off.SegsPerReq, off.PktsPerReq)
	}
	if off.AcksPerReq == 0 || on.AcksPerReq == 0 || on.SegsPerReq == 0 {
		t.Errorf("packet-economy meters silent: off acks %.1f, on acks %.1f, on segs %.1f",
			off.AcksPerReq, on.AcksPerReq, on.SegsPerReq)
	}
	if on.P99Us > 1.10*off.P99Us {
		t.Errorf("offload p99 %.0fµs regressed vs %.0fµs baseline", on.P99Us, off.P99Us)
	}
}

// TestFCGISockRefMarginalAllocs pins the host allocations one fcgi request
// costs over loopback TCP in ref mode, at the shape of the benchmark's
// fcgi-sockref workload. Two runs that differ only in their measure window
// cancel the topology's build and the warmup, so the difference in
// mallocs over the difference in requests is the marginal cost of a
// request. A segment in flight holds buffer slices, not an aggregate per
// piece: a per-piece aggregate coming back adds about 17 per request and
// fails here. Not parallel, since Mallocs counts the whole process.
func TestFCGISockRefMarginalAllocs(t *testing.T) {
	run := func(measure time.Duration) (mallocs uint64, requests int64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := RunFCGINet(FCGINetParams{
			Placement:  PlaceSockLocal,
			Workers:    4,
			Depth:      8,
			Requesters: 32,
			DocBytes:   16 << 10,
			Ref:        true,
			Warmup:     100 * time.Millisecond,
			Measure:    measure,
		})
		runtime.ReadMemStats(&m1)
		if r.Failures != 0 || r.Requests == 0 {
			t.Fatalf("%s: %d requests, %d failures", r.Label, r.Requests, r.Failures)
		}
		return m1.Mallocs - m0.Mallocs, r.Requests
	}
	shortM, shortR := run(200 * time.Millisecond)
	longM, longR := run(600 * time.Millisecond)
	per := float64(longM-shortM) / float64(longR-shortR)
	t.Logf("%d more allocations over %d more requests: %.2f per request", longM-shortM, longR-shortR, per)
	if per > 46 {
		t.Fatalf("%.2f host allocations per fcgi request, want at most 46", per)
	}
}
