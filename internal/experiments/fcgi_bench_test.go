package experiments

import (
	"fmt"
	"testing"
	"time"
)

// FCGI benchmarks: the worker-pool scaling study (RunFCGINet's pipe
// placement). Each run reports throughput and the charged copy work as
// benchmark metrics, so the CI bench job (BENCH_fcgi.json) tracks the
// multiplexing subsystem's zero-copy win numerically.
//
//	go test ./internal/experiments -bench=FCGI -benchtime=1x

func benchFCGI(b *testing.B, workers, depth int, ref bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := RunFCGINet(FCGINetParams{
			Placement: PlacePipe,
			Workers:   workers,
			Depth:     depth,
			Ref:       ref,
			Warmup:    200 * time.Millisecond,
			Measure:   time.Second,
		})
		if i == 0 {
			fmt.Printf("%s: %.1f kreq/s, copied %.2f MB, cpu %.2f\n",
				r.Label, r.KReqPerSec, r.CopiedMB, r.CPUUtil)
			b.ReportMetric(r.KReqPerSec, "kreq/s")
			b.ReportMetric(r.CopiedMB, "copiedMB")
			b.ReportMetric(r.CPUUtil*100, "cpu_pct")
			b.ReportMetric(r.P50Us, "latency_p50_us")
			b.ReportMetric(r.P99Us, "latency_p99_us")
		}
	}
}

// BenchmarkFCGICopyShallow — the old protocol's shape: one request per
// worker pipe pair, serialized payloads.
func BenchmarkFCGICopyShallow(b *testing.B) { benchFCGI(b, 4, 1, false) }

// BenchmarkFCGICopyDeep — multiplexed requests, still copying payloads.
func BenchmarkFCGICopyDeep(b *testing.B) { benchFCGI(b, 4, 8, false) }

// BenchmarkFCGIRefShallow — reference payloads, one request at a time.
func BenchmarkFCGIRefShallow(b *testing.B) { benchFCGI(b, 4, 1, true) }

// BenchmarkFCGIRefDeep — the subsystem at full stretch: 32 in-flight
// requests over 4 pipe pairs, zero payload copies.
func BenchmarkFCGIRefDeep(b *testing.B) { benchFCGI(b, 4, 8, true) }
