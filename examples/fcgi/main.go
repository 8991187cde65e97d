// FCGI: the record-framed, request-multiplexing worker transport —
// internal/fcgi — measured head to head in its two payload modes over the
// same workload (4 workers, a 16 KB document, a 400 µs simulated backend
// wait per request):
//
//   - copy mode: the conventional FastCGI wire format; every response
//     byte is serialized into the worker's pipe (one copy in, one copy
//     out) and the CPU saturates on copies.
//
//   - ref mode: each record is a buffer aggregate — an 8-byte header
//     generated in the sender's pool plus the sealed payload by
//     reference. Payload bytes charge zero copy work, so the same
//     hardware sustains several times the request rate.
//
// Both modes are shown at mux depth 1 (one request per worker pipe pair
// at a time — the shape of a naive CGI protocol) and depth 8 (eight
// in-flight requests multiplexed over each pipe pair, hiding the backend
// wait).
//
// Run it with:
//
//	go run ./examples/fcgi
package main

import (
	"fmt"
	"time"

	"iolite/internal/experiments"
)

func main() {
	fmt.Println("4 FastCGI workers serving 16 KB documents, 400 µs backend wait per request")
	fmt.Println("(M = workers × depth closed-loop requesters over one pipe pair per worker)")
	fmt.Println()

	for _, cfg := range []struct {
		ref   bool
		depth int
	}{
		{false, 1}, {false, 8}, {true, 1}, {true, 8},
	} {
		r := experiments.RunFCGINet(experiments.FCGINetParams{
			Placement: experiments.PlacePipe,
			Workers:   4,
			Depth:     cfg.depth,
			Ref:       cfg.ref,
			Warmup:    300 * time.Millisecond,
			Measure:   2 * time.Second,
		})
		fmt.Printf("%-19s %7.1f kreq/s  copied %8.2f MB  (cpu %3.0f%%)\n",
			r.Label, r.KReqPerSec, r.CopiedMB, r.CPUUtil*100)
	}

	fmt.Println()
	fmt.Println("copy mode moves every payload byte through the pipe FIFO twice; ref mode")
	fmt.Println("passes sealed aggregates by reference and charges only framing bytes.")
}
