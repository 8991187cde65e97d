// QoS: multi-tenant isolation under an adversarial heavy hitter. One
// fcgi pool (4 workers, mux depth 16, 4 KB ref-mode documents over a
// loopback socket) serves 500 well-behaved tenants thinking 400 ms
// between requests — and one aggressor driving 32 zero-think loops at
// thousands of times a tenant's fair rate. Four legs:
//
//   - uniform off/on: nobody misbehaves; the on leg prices enforcement
//     (the per-request admission charge) — it should be invisible, with
//     zero sheds.
//
//   - aggressor off: the flood takes the pool FIFO and the victims' p99
//     collapses by orders of magnitude.
//
//   - aggressor on: the pool's admission control (in-flight share bound +
//     per-tenant rate bucket) and tenant-aware routing cap the aggressor
//     at its allowance; the excess sheds with typed errors and the
//     victims' p99 returns to baseline.
//
// Run it with:
//
//	go run ./examples/qos
package main

import (
	"fmt"

	"iolite/internal/experiments"
)

func main() {
	fmt.Println("500 tenants + 1 heavy hitter, 4 FastCGI workers, mux depth 16, 4 KB ref docs")
	fmt.Println("(same pool, same population — only enforcement toggles)")
	fmt.Println()

	run := func(name string, qp experiments.QoSParams) experiments.QoSResult {
		qp.Tenants = 500
		r := experiments.RunQoS(qp)
		fmt.Printf("%-14s victim p99 %8.0f µs  %5.2f kreq/s  agg %5.2f kreq/s  sheds/req %5.2f\n",
			name, r.VictimP99Us, r.KReqPerSec, r.AggKReqPerSec, r.ShedsPerReq)
		return r
	}
	off := run("uniform", experiments.QoSParams{})
	run("uniform+qos", experiments.QoSParams{QoS: true})
	bad := run("aggressor", experiments.QoSParams{Aggressor: true})
	good := run("aggr+qos", experiments.QoSParams{Aggressor: true, QoS: true})

	fmt.Println()
	fmt.Printf("the flood moves victim p99 %.0f → %.0f µs; enforcement brings it back to\n",
		off.VictimP99Us, bad.VictimP99Us)
	fmt.Printf("%.0f µs by refusing the aggressor's excess at admission (%d sheds, %d\n",
		good.VictimP99Us, good.Sheds, good.Throttles)
	fmt.Println("throttles) — a typed error the tenant answers with backoff, so the")
	fmt.Println("backlog lives in the aggressor's retry loop, not in pool queues the")
	fmt.Println("other tenants wait behind.")
}
