package experiments

import (
	"fmt"
	"testing"
	"time"
)

// Chaos benchmarks: one run per fault leg, reporting goodput, tail
// latency, and the recovery meters as metrics so the CI bench job
// (BENCH_chaos.json) tracks the cost of surviving faults alongside the
// fault-free trajectory.
//
//	go test ./internal/experiments -bench=Chaos -benchtime=1x

func benchChaos(b *testing.B, cp ChaosParams) {
	b.Helper()
	cp.Warmup = 100 * time.Millisecond
	cp.Measure = 500 * time.Millisecond
	for i := 0; i < b.N; i++ {
		r := RunChaos(cp)
		if i == 0 {
			fmt.Printf("%s: %.2f kreq/s, p99 %.0f µs, failed %d, replays %d, respawns %d, retrans %.1f%%\n",
				r.Label, r.GoodputKReq, r.P99Us, r.Failed, r.Replays, r.Respawns, r.RetransPct*100)
			b.ReportMetric(r.GoodputKReq, "kreq/s")
			b.ReportMetric(float64(r.Failed), "failed")
			b.ReportMetric(float64(r.Replays), "replays")
			b.ReportMetric(float64(r.Respawns), "respawns")
			b.ReportMetric(r.RetransPct*100, "retrans_pct")
			b.ReportMetric(r.CopiedKBPerReq, "copiedKB/req")
			b.ReportMetric(float64(r.LeakPages), "leak_pages")
			b.ReportMetric(r.P50Us, "latency_p50_us")
			b.ReportMetric(r.P99Us, "latency_p99_us")
		}
	}
}

// BenchmarkChaosClean — the fault-free baseline the other legs are
// judged against.
func BenchmarkChaosClean(b *testing.B) { benchChaos(b, ChaosParams{}) }

// BenchmarkChaosLoss1 — 1% segment loss on the loopback link: go-back-N
// retransmission pays wire bytes, not copies.
func BenchmarkChaosLoss1(b *testing.B) { benchChaos(b, ChaosParams{LossProb: 0.01}) }

// BenchmarkChaosKillsReplay — a worker killed every 20 ms with
// supervision respawn and idempotent replay: failed must stay 0.
func BenchmarkChaosKillsReplay(b *testing.B) {
	benchChaos(b, ChaosParams{KillEvery: 20 * time.Millisecond, Replay: true})
}

// BenchmarkChaosCombined — the acceptance mix: loss and kills together.
func BenchmarkChaosCombined(b *testing.B) {
	benchChaos(b, ChaosParams{LossProb: 0.01, KillEvery: 20 * time.Millisecond, Replay: true})
}
