package main

import (
	"container/heap"
	"runtime"
	"strings"
	"time"
)

// Host time on a shared VM drifts by 2-3× within minutes, for every
// workload at once (bench/README.md). So every child process times a
// reference loop before and after its measurement and scales its host times
// by the loop's speed: a host time is reported as it would read on a
// machine where the loop takes refNominal. The loop uses only the standard
// library, so no change to the repository moves it. It is shaped like the
// simulator's own work: an event heap, goroutine hand-offs and short-lived
// allocations.

// refNominal is the loop time host times are scaled to: about the loop's
// fastest time on the 2-vCPU VM the benchmark was written on, where its
// median was 110 ms.
const refNominal = 80 * time.Millisecond

// refTime runs the reference loop once, with the heap collected first, and
// returns its wall time.
func refTime() time.Duration {
	runtime.GC()
	t0 := time.Now()
	refHeap()
	refHandoff()
	refAlloc()
	return time.Since(t0)
}

// isHostTime reports whether a child metric is a host time the reference
// loop scales. Simulated times (sim_*, obs.*) and counts are not.
func isHostTime(name string) bool {
	return name == "setup_s" || strings.HasSuffix(name, "_ns") ||
		strings.HasPrefix(name, "host") && strings.HasSuffix(name, "_us_per_req")
}

// scaleHostTimes scales every host time in m to the reference machine,
// given the loop's time in this process, and records that time as
// host.ref_ms.
func scaleHostTimes(m map[string]float64, ref time.Duration) {
	f := float64(refNominal) / float64(ref)
	for name, v := range m {
		if isHostTime(name) {
			m[name] = v * f
		}
	}
	m["host.ref_ms"] = float64(ref) / float64(time.Millisecond)
}

// refEvent is one entry of the reference loop's event heap.
type refEvent struct {
	at  int64
	seq int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refSink keeps the compiler from dropping the loops' work.
var refSink int64

// refHeap pushes pseudo-random events through a heap of about 1000.
func refHeap() {
	q := &refQueue{}
	x := int64(1)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(q, &refEvent{at: x >> 40, seq: i})
		if q.Len() > 1000 {
			refSink += heap.Pop(q).(*refEvent).at
		}
	}
}

// refHandoff bounces a value between two goroutines, as a simulated
// process hands control to the engine and back.
func refHandoff() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 50_000; i++ {
		ping <- i
		refSink += int64(<-pong)
	}
	close(ping)
	<-pong
}

// refAlloc allocates short-lived linked buffers of 64-575 bytes.
func refAlloc() {
	type node struct {
		next *node
		buf  []byte
	}
	var head *node
	for i := 0; i < 150_000; i++ {
		head = &node{next: head, buf: make([]byte, 64+i%512)}
		if i%1000 == 999 {
			refSink += int64(len(head.buf))
			head = nil
		}
	}
}
