package httpd

import (
	"bytes"
	"fmt"
	"testing"
)

// TestCGIServingAllPlacements serves the same dynamic document with the
// CGI worker tier in every placement the transport layer supports —
// in-machine pipes, loopback TCP, and a remote worker machine — for both
// an IO-Lite and a conventional server. The bytes must be identical
// everywhere: the transport changes what moving them costs, never what
// arrives.
func TestCGIServingAllPlacements(t *testing.T) {
	const docBytes = 20000
	want := cgiDoc(docBytes)
	for _, kind := range []Kind{FlashLite, Flash} {
		for _, placement := range []string{"pipe", "sock-local", "sock-remote"} {
			t.Run(fmt.Sprintf("%s/%s", kind, placement), func(t *testing.T) {
				b := newBedPlaced(kind, true, placement)
				got := b.fetchOnce(t, CGIDocPath(docBytes))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s over %s served wrong bytes (%d vs %d)",
						kind, placement, len(got), len(want))
				}
			})
		}
	}
}

// TestCGIRemotePlacementChargesBoundaryCopy pins the cost shape at the
// httpd layer: the same Flash-Lite CGI request that crosses a pipe with
// zero payload copies is charged payload copies once it must cross to a
// remote worker machine.
func TestCGIRemotePlacementChargesBoundaryCopy(t *testing.T) {
	const docBytes = 20000
	copied := func(placement string) int64 {
		b := newBedPlaced(FlashLite, true, placement)
		// Warm every worker: sequential requests rotate round-robin, and
		// each worker's first request packs its document aggregate (a
		// charged producer copy that belongs outside the measured round).
		for i := 0; i < 8; i++ {
			b.fetchOnce(t, CGIDocPath(docBytes))
		}
		b.m.Costs.ResetMeters()
		b.fetchOnce(t, CGIDocPath(docBytes))
		return b.m.Costs.MeterCopiedBytes()
	}
	pipe := copied("pipe")
	remote := copied("sock-remote")
	if pipe >= docBytes {
		t.Errorf("pipe placement charged %d copied bytes, want framing-only (< %d)", pipe, docBytes)
	}
	if remote < docBytes {
		t.Errorf("remote placement charged %d copied bytes, want ≥ one boundary copy of %d", remote, docBytes)
	}
	if remote >= 2*docBytes {
		t.Errorf("remote placement charged %d copied bytes, want < 2×%d (payload crosses the boundary once)", remote, docBytes)
	}
}
