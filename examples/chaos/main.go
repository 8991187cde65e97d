// Chaos: the zero-copy claims under failure. The acceptance topology — a
// sock-local ref fcgi tier, 2 workers at mux depth 16, 16 KB documents —
// runs four times against an increasingly hostile world:
//
//   - clean: the fault-free baseline every other leg is judged against.
//
//   - loss: the loopback wire drops 1% of data segments. The receiver
//     holds out-of-order chunks until the hole fills, and selective
//     retransmission (wheel-driven RTO, fast retransmit, NewReno partial
//     acks) re-sends only the lost chunk's stored references — recovery
//     pays wire and checksum-lookup work, never a payload copy.
//
//   - kills: a worker's channel is torn down every 20 ms, mid-flight.
//     Supervision respawns capacity, but without replay the in-flight
//     requests on the dead worker are simply lost.
//
//   - kills+replay: the same kills, with the pool's idempotent replay
//     policy on — in-flight idempotent requests re-dispatch to a live
//     worker instead of failing.
//
// A fifth leg runs the proxy degradation story: the origin goes down
// mid-run and a ServeStale cache keeps answering from expired entries.
//
// Run it with:
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"time"

	"iolite/internal/experiments"
)

func main() {
	fmt.Println("2 FastCGI workers, mux depth 16, 16 KB documents, sock-local ref transport")
	fmt.Println("(same pool, same workload — only the injected faults change)")
	fmt.Println()

	run := func(name string, cp experiments.ChaosParams) {
		r := experiments.RunChaos(cp)
		fmt.Printf("%-14s %5.2f kreq/s  p99 %6.0f µs  failed %3d  replays %3d  respawns %3d  retrans %5.1f%%  leaked pages %d\n",
			name, r.GoodputKReq, r.P99Us, r.Failed, r.Replays, r.Respawns, r.RetransPct*100, r.LeakPages)
	}
	kill := 20 * time.Millisecond
	run("clean", experiments.ChaosParams{})
	run("loss 1%", experiments.ChaosParams{LossProb: 0.01})
	run("kills", experiments.ChaosParams{KillEvery: kill})
	run("kills+replay", experiments.ChaosParams{LossProb: 0.01, KillEvery: kill, Replay: true})

	s := experiments.RunStaleChaos()
	fmt.Printf("%-14s %d requests through an origin outage: %d stale-served, %d failed\n",
		"serve-stale", s.Requests, s.StaleServed, s.Aborted)

	fmt.Println()
	fmt.Println("the kills row loses every in-flight request on the dead worker; the")
	fmt.Println("kills+replay row adds 1% loss on top and still completes everything —")
	fmt.Println("retransmission re-sends stored refs (no copy re-charge), supervision")
	fmt.Println("respawns capacity, and idempotent in-flight work re-dispatches. The only")
	fmt.Println("added copy work is each respawned worker packing its document once.")
}
